package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"thinc/internal/auth"
	"thinc/internal/cipher"
	"thinc/internal/client"
	"thinc/internal/fb"
	"thinc/internal/geom"
	"thinc/internal/overload"
	"thinc/internal/pixel"
	"thinc/internal/server"
	"thinc/internal/shard"
	"thinc/internal/simnet"
	"thinc/internal/telemetry"
	"thinc/internal/wire"
	"thinc/internal/xserver"
)

const (
	fleetW, fleetH  = 1024, 768
	fleetSessions   = 64
	fleetActive     = 16
	fleetCacheKB    = 2048
	fleetLimit      = 100 * time.Millisecond // glass p90 limit for capacity
	fleetDeadline   = 5 * time.Second        // a sample pending longer failed
	fleetReattaches = 1                      // reattaches under load per rate
	fleetResumes    = 24                     // resume samples on the settled fleet
	fleetResumeGap  = 250 * time.Millisecond
	fleetSetupRuns  = 3 // each builds and attaches the whole fleet
	// fleetRotate is how often the active subset slides by four sessions.
	fleetRotate = time.Second
)

// fleetRates are the fixed offered rates (desktop updates per second
// across the fleet), each run for an equal share of the measured
// phase, in rising order. On a 2-vCPU VM (Go 1.22, linux/amd64) the
// fleet saturated between 2500 and 5500 updates/s depending on the
// host's load: at 4000/s glass p90 ranged from 7ms to 208ms across
// runs, at 5000/s from 19ms to 133ms, and at 6000/s and above the
// backlog grew in every run. At 2500/s p90 already ranged from 8ms to
// 33ms. The first fleetMeasured rates are the measured load, where the
// tail stays steady; the end-to-end metrics pool their samples. The
// others probe saturation, below, near and just above it, for
// capacity_updates_per_s.
var fleetRates = []int{500, 1000, 2500, 4000, 5500}

const fleetMeasured = 2

// fleetShare is each rate's share of the measured phase: the measured
// rates run twice as long as the probes.
func fleetShare(pi int) int64 {
	if pi < fleetMeasured {
		return 2
	}
	return 1
}

// fleetCPUWindow is the window CPU per update is read over; a rate
// reports the median over its windows.
const fleetCPUWindow = 500 * time.Millisecond

// fleetGlassWindow is the window glass_p90_ms is taken over; the run
// reports the median of the measured rates' window p90s.
const fleetGlassWindow = time.Second

// fsession is one simulated thin client on the fleet: an EventConn
// client end whose data hook — run on the server's shard worker when a
// flush lands — decrypts, parses and applies the stream into a
// client.Client framebuffer. No goroutine or socket per session.
type fsession struct {
	idx  int
	host *server.Host
	win  *xserver.Window

	mu      sync.Mutex // guards everything below it
	cl      *client.Client
	conn    *simnet.EventConn
	enc     *cipher.StreamConn
	es      *server.EventSession
	closing bool
	rbuf    []byte
	pbuf    []byte
	off     int
	ticket  []byte
	epoch   uint64
	applyNS int64 // decode+apply time since the last MarkAck
	slot    int   // next update slot (generator only)

	watch     rectWatch
	sampleApp atomic.Int64 // apply time while samples are pending
	bytes     atomic.Int64
	dead      atomic.Bool
	notices   atomic.Int64 // DegradeNotices: the overload ladder moved

	onGlass func(s *fsession, r rectSample, glassNS int64)

	streamClock
}

func (s *fsession) onData(int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainLocked()
}

func (s *fsession) drainLocked() {
	if s.closing || s.dead.Load() {
		return
	}
	for {
		n := s.conn.Buffered()
		if n == 0 {
			break
		}
		if cap(s.rbuf) < n {
			s.rbuf = make([]byte, n)
		}
		m, err := s.enc.Read(s.rbuf[:n])
		if err != nil {
			s.dead.Store(true)
			return
		}
		s.pbuf = append(s.pbuf, s.rbuf[:m]...)
		s.bytes.Add(int64(m))
		s.lastByte.Store(nowNS())
		s.parseLocked()
	}
	if s.off == len(s.pbuf) {
		s.pbuf, s.off = s.pbuf[:0], 0
	} else if s.off > 1<<16 {
		s.pbuf = append(s.pbuf[:0], s.pbuf[s.off:]...)
		s.off = 0
	}
}

// parseLocked applies every complete message in pbuf: control messages
// are answered the way client.Conn answers them, display messages go
// through client.Client.Apply, and pending glass samples are checked
// after each pixel-changing apply.
func (s *fsession) parseLocked() {
	for {
		avail := len(s.pbuf) - s.off
		if avail < wire.HeaderSize {
			return
		}
		pl := int(binary.BigEndian.Uint32(s.pbuf[s.off+1:]))
		if avail < wire.HeaderSize+pl {
			return
		}
		t := wire.Type(s.pbuf[s.off])
		payload := s.pbuf[s.off+wire.HeaderSize : s.off+wire.HeaderSize+pl]
		s.off += wire.HeaderSize + pl
		m, err := wire.Unmarshal(t, payload)
		if err != nil {
			continue // unknown types are skipped, as client.Conn does
		}
		switch v := m.(type) {
		case *wire.Ping:
			s.deliver(&wire.Pong{Seq: v.Seq, TimeUS: v.TimeUS})
			continue
		case *wire.TimeMark:
			apply := uint32(s.applyNS / 1000)
			s.applyNS = 0
			s.deliver(&wire.MarkAck{Epoch: v.Epoch, TimeUS: v.TimeUS, ApplyUS: apply})
			continue
		case *wire.SessionTicket:
			s.ticket = append(s.ticket[:0], v.Ticket...)
			s.epoch = v.CacheEpoch
			continue
		case *wire.DegradeNotice:
			s.notices.Add(1)
			continue
		case *wire.Pong, *wire.AuditProbe:
			continue
		}
		t0 := nowNS()
		err = s.cl.Apply(m)
		now := nowNS()
		s.applyNS += now - t0
		var miss *client.CacheMissError
		if errors.As(err, &miss) {
			s.deliver(&wire.CacheMiss{Digest: miss.Digest, Rect: miss.Rect})
		} else if err != nil {
			s.dead.Store(true)
			return
		}
		if paints(t) {
			s.lastPaint.Store(now)
			if s.watch.size() > 0 {
				s.sampleApp.Add(now - t0)
				s.watch.check(s.cl.FB(), now, func(r rectSample, g int64) { s.onGlass(s, r, g) })
			}
		}
	}
}

func (s *fsession) deliver(m wire.Message) {
	if err := s.es.Deliver(m); err != nil && !s.closing {
		s.dead.Store(true)
	}
}

// attach performs the client handshake over a fresh EventConn pair
// (the server side runs ServeEvent on a transient goroutine), as a
// fresh ClientInit or a ticket Reattach.
func (s *fsession) attach(reattach bool) error {
	cln, srv := simnet.NewEventPair()
	type res struct {
		es  *server.EventSession
		err error
	}
	resC := make(chan res, 1)
	go func() {
		es, err := s.host.ServeEvent(srv)
		resC <- res{es, err}
	}()
	fail := func(err error) error {
		cln.Close()
		<-resC
		return err
	}
	_ = cln.SetReadDeadline(time.Now().Add(10 * time.Second))
	m, err := wire.ReadMessage(cln)
	if err != nil {
		return fail(err)
	}
	ch, ok := m.(*wire.AuthChallenge)
	if !ok {
		return fail(fmt.Errorf("expected challenge, got %v", m.Type()))
	}
	if err := wire.WriteMessage(cln, &wire.AuthResponse{
		User: benchUser, Proof: auth.Proof(benchSecret, ch.Nonce)}); err != nil {
		return fail(err)
	}
	if m, err = wire.ReadMessage(cln); err != nil {
		return fail(err)
	}
	if r, ok := m.(*wire.AuthResult); !ok || !r.OK {
		return fail(errors.New("authentication refused"))
	}
	enc, err := cipher.NewStreamConn(cln, auth.SessionKey(benchSecret, ch.Nonce), false)
	if err != nil {
		return fail(err)
	}
	s.mu.Lock()
	var hello wire.Message = &wire.ClientInit{ViewW: fleetW, ViewH: fleetH,
		Name: benchUser, Role: wire.RoleOwner, CacheKB: fleetCacheKB}
	if reattach {
		hello = &wire.Reattach{Ticket: s.ticket, ViewW: fleetW, ViewH: fleetH,
			Name: benchUser, Role: wire.RoleOwner, CacheKB: fleetCacheKB, CacheEpoch: s.epoch}
	}
	s.mu.Unlock()
	if err := wire.WriteMessage(enc, hello); err != nil {
		return fail(err)
	}
	if m, err = wire.ReadMessage(enc); err != nil {
		return fail(err)
	}
	si, ok := m.(*wire.ServerInit)
	if !ok {
		return fail(fmt.Errorf("expected server init, got %v", m.Type()))
	}
	_ = cln.SetReadDeadline(time.Time{})
	r := <-resC
	if r.err != nil {
		cln.Close()
		return r.err
	}
	s.mu.Lock()
	if s.cl == nil {
		s.cl = client.New(fleetW, fleetH)
	}
	if si.CacheWarm != 0 {
		s.cl.EnableCache(int(si.CacheKB) * 1024)
	} else {
		s.cl.ResetCache(int(si.CacheKB) * 1024)
		s.epoch = 0
	}
	s.conn, s.enc, s.es = cln, enc, r.es
	s.closing = false
	s.pbuf, s.off = s.pbuf[:0], 0
	s.mu.Unlock()
	cln.SetOnData(s.onData)
	s.onData(0)
	return nil
}

// detach drops the session's transport; the server retains it.
func (s *fsession) detach(dropCache bool) {
	s.mu.Lock()
	s.closing = true
	es, conn := s.es, s.conn
	if dropCache {
		// A cold resume: the client's store is gone, so it claims no
		// epoch and the server must resync in full.
		s.cl.ResetCache(0)
		s.epoch = 0
	}
	s.mu.Unlock()
	es.Close()
	conn.Close()
}

// resume detaches the session and reattaches it by ticket, cold when
// the client first drops its cache, and returns the time until the
// client converged and the bytes it received meanwhile.
func (s *fsession) resume(cold bool) (glassNS, bytes int64, ok bool) {
	s.detach(cold)
	b0 := s.bytes.Load()
	start := nowNS()
	if err := s.attach(true); err != nil {
		s.dead.Store(true)
		return 0, 0, false
	}
	g, ok := s.waitConverged(start, 5*time.Second, true)
	return g, s.bytes.Load() - b0, ok
}

// converged compares the client framebuffer with the host's screen
// pixel by pixel, copying the screen under the Host lock into the
// checker's reused buffer and comparing under the session lock, so
// neither lock is taken inside the other (the data hook holds the
// session lock while it delivers into the server).
func (s *fsession) converged(screen *[]pixel.ARGB) bool {
	s.host.Do(func(d *xserver.Display) { *screen = append((*screen)[:0], d.Screen().Pix()...) })
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cl != nil && pixEqual(s.cl.FB().Pix(), *screen)
}

// waitConverged waits until the session has applied a pixel-changing
// message after startNS, its stream has gone quiet and it matches its
// host's screen; it returns the time from startNS to the last such
// apply. With needPaint false (the final check) a settled, equal
// screen suffices.
func (s *fsession) waitConverged(startNS int64, deadline time.Duration, needPaint bool) (int64, bool) {
	var screen []pixel.ARGB
	return s.settle(startNS, nowNS()+int64(deadline), needPaint, s.dead.Load,
		func() bool { return s.converged(&screen) })
}

// drawDesktop paints session i's initial desktop: a tiled background,
// a few application windows and some text, so attaches and resyncs
// carry a real-size screen.
func drawDesktop(d *xserver.Display, win *xserver.Window, i int) {
	d.TileRect(win, fb.NewTile(4, 4, []pixel.ARGB{
		pixel.RGB(40, 60, 90), pixel.RGB(44, 64, 94), pixel.RGB(40, 60, 90), pixel.RGB(36, 56, 86),
		pixel.RGB(44, 64, 94), pixel.RGB(40, 60, 90), pixel.RGB(36, 56, 86), pixel.RGB(40, 60, 90),
		pixel.RGB(40, 60, 90), pixel.RGB(36, 56, 86), pixel.RGB(44, 64, 94), pixel.RGB(40, 60, 90),
		pixel.RGB(36, 56, 86), pixel.RGB(40, 60, 90), pixel.RGB(40, 60, 90), pixel.RGB(44, 64, 94),
	}), geom.XYWH(0, 0, fleetW, fleetH))
	for w := 0; w < 4; w++ {
		r := geom.XYWH(20+w*250, 20, 240, 700)
		d.FillRect(win, &xserver.GC{Fg: pixel.RGB(uint8(200+w*10), 220, 230)}, r)
		for l := 0; l < 20; l++ {
			d.DrawText(win, &xserver.GC{Fg: pixel.RGB(20, 20, 20)}, r.X0+6, r.Y0+40+l*28,
				fmt.Sprintf("session %02d window %d line %02d", i, w, l))
		}
	}
}

// slotRect is where session update n lands: one line inside one of the
// four windows, cycling through 96 slots.
func slotRect(n int) geom.Rect {
	n %= 96
	return geom.XYWH(26+(n/24)*250, 48+(n%24)*28, 228, 20)
}

// paintUpdate draws desktop update n of a session (a highlighted line
// of fresh text) and returns the server's pixels in its rectangle.
func paintUpdate(d *xserver.Display, win *xserver.Window, idx, n int) (geom.Rect, []pixel.ARGB) {
	r := slotRect(n)
	d.FillRect(win, &xserver.GC{Fg: pixel.RGB(uint8(n*37), 230, uint8(255-n*11))}, r)
	d.DrawText(win, &xserver.GC{Fg: pixel.RGB(10, 10, 10)}, r.X0+4, r.Y0+6,
		fmt.Sprintf("s%02d update %06d", idx, n))
	return r, d.Screen().ReadImage(r)
}

// fleetRig is one set-up fleet with every session attached.
type fleetRig struct {
	fleet    *server.Fleet
	sessions []*fsession
}

func (rig *fleetRig) close() {
	for _, s := range rig.sessions {
		s.mu.Lock()
		s.closing = true
		s.mu.Unlock()
		if s.conn != nil {
			s.conn.Close()
		}
	}
	rig.fleet.Close()
}

// setupFleet builds the fleet and attaches every session, returning
// the time until every client converged and the heap per session.
func setupFleet(onGlass func(*fsession, rectSample, int64)) (*fleetRig, float64, int64, error) {
	gc()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	opts := hostOptions()
	// The simulated clients answer no integrity probes; the e2e mark
	// loop stays on for the cross-check.
	opts.DisableAudit = true
	opts.CacheKB = fleetCacheKB
	rig := &fleetRig{fleet: server.NewFleet(opts, shard.Options{Shards: runtime.NumCPU()})}
	gate := benchGate()
	for i := 0; i < fleetSessions; i++ {
		s := &fsession{idx: i, host: rig.fleet.NewHost(fleetW, fleetH, gate), onGlass: onGlass}
		s.host.Do(func(d *xserver.Display) {
			s.win = d.CreateWindow(geom.XYWH(0, 0, fleetW, fleetH))
			drawDesktop(d, s.win, i)
		})
		rig.sessions = append(rig.sessions, s)
	}
	start := nowNS()
	for _, s := range rig.sessions {
		if err := s.attach(false); err != nil {
			rig.close()
			return nil, 0, 0, fmt.Errorf("attach session %d: %w", s.idx, err)
		}
	}
	var last int64
	for _, s := range rig.sessions {
		g, ok := s.waitConverged(start, 30*time.Second, true)
		if !ok {
			rig.close()
			return nil, 0, 0, fmt.Errorf("session %d initial sync did not converge", s.idx)
		}
		last = max(last, g)
	}
	gc()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return rig, float64(last) / 1e9, (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / fleetSessions, nil
}

// fleetPhase is one offered rate's results.
type fleetPhase struct {
	rate     int
	offered  int
	startNS  int64
	glass    []float64
	glassAt  []timed
	late     []float64
	pending  int       // samples still pending when the phase ended
	cpuS     float64   // process CPU while the rate ran
	cpuWin   []float64 // CPU per update (ms) in each fleetCPUWindow
	bytes    int64     // client-received bytes while the rate ran
	resumeKB float64   // of which reattach resyncs (under mu)
}

// runFleet is the fleet workload: 64 sessions at 1024x768 on one
// server.Fleet with one shard per CPU, over in-process EventConn pairs.
// Open loop: a rotating active subset receives small desktop updates
// at fixed offered rates (two measured, two probing saturation) while
// idle sessions reattach by ticket inside each rate; then resumes are
// sampled on the settled fleet, two warm for every cold one.
func runFleet(cfg config) (*outcome, error) {
	out := newOutcome()
	var mu sync.Mutex
	phases := []*fleetPhase{}
	var tracedG, untracedG []float64
	var tracing atomic.Bool
	tr := &tracer{}
	onGlass := func(s *fsession, r rectSample, g int64) {
		ms := float64(g) / 1e6
		mu.Lock()
		ph := phases[r.ID/1_000_000]
		ph.glass = append(ph.glass, ms)
		ph.glassAt = append(ph.glassAt, timed{r.StartNS, ms})
		if tracing.Load() {
			tracedG = append(tracedG, ms)
		} else {
			untracedG = append(untracedG, ms)
		}
		mu.Unlock()
		tr.add(r.ID, spanGlass, r.StartNS, r.StartNS+g)
		tr.add(r.ID, spanApply, r.StartNS, r.StartNS+s.sampleApp.Swap(0))
	}

	var setups []float64
	var rig *fleetRig
	var heapPer int64
	for i := 0; i < fleetSetupRuns; i++ {
		if rig != nil {
			rig.close()
		}
		var sec float64
		var err error
		rig, sec, heapPer, err = setupFleet(onGlass)
		if err != nil {
			return nil, err
		}
		setups = append(setups, sec)
	}
	defer rig.close()
	out.E2E["setup_s"] = median(setups)
	out.E2E["heap_mb_per_session"] = float64(heapPer) / (1 << 20)
	out.Layers["server.attach_ms"] = median(setups) * 1e3 / fleetSessions
	say("fleet: %d sessions, %d shards; setup %v s (median of %d), heap %.2f MB per session",
		fleetSessions, runtime.NumCPU(), setups, len(setups), float64(heapPer)/(1<<20))

	// The seed picks the active subset's starting point and the update
	// slot each session starts from.
	base := cfg.Rand.Intn(fleetSessions)
	for _, s := range rig.sessions {
		s.slot = cfg.Rand.Intn(96)
	}
	rates := fleetRates
	if cfg.Trace {
		// An untraced and a traced half at the same measured rate.
		rates = []int{fleetRates[1], fleetRates[1]}
	}
	var shares int64
	for pi := range rates {
		shares += fleetShare(pi)
	}

	// Reattacher: at fixed points inside each rate, an idle session
	// reattaches by ticket, every third one cold (the client lost its
	// cache) and the others warm. Their resyncs are load: they put
	// resync-affected samples in the glass tail, rare enough that the
	// p90 stays in the unaffected class. Resume latency itself is
	// sampled afterwards, on the settled fleet. Each resync's bytes are
	// kept out of its rate's per-update traffic.
	var loadResumes tally
	var activeStart atomic.Int64
	kick := make(chan *fleetPhase, len(rates)*fleetReattaches)
	reattachDone := make(chan struct{})
	go func() {
		defer close(reattachDone)
		n := 0
		for ph := range kick {
			s := rig.sessions[(int(activeStart.Load())+fleetSessions/2+n)%fleetSessions]
			cold := n%3 == 2
			n++
			if s.dead.Load() {
				continue
			}
			_, b, ok := s.resume(cold)
			mu.Lock()
			loadResumes.add(ok)
			ph.resumeKB += float64(b) / 1024
			mu.Unlock()
		}
	}()

	pool := rig.fleet.Scheduler().Pool()
	ps0 := pool.Stats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var doWait, translate []float64
	totalBytes := func() (n int64) {
		for _, s := range rig.sessions {
			n += s.bytes.Load()
		}
		return n
	}
	offered, failedDead := 0, 0
	expired := 0
	runStart := nowNS()
	for pi, rate := range rates {
		ph := &fleetPhase{rate: rate}
		mu.Lock()
		phases = append(phases, ph)
		mu.Unlock()
		cpu0, bytes0 := cpuSeconds(), totalBytes()
		start := nowNS()
		ph.startNS = start
		interval := int64(time.Second) / int64(rate)
		per := int64(cfg.Duration) * fleetShare(pi) / shares
		end := start + per
		nextExpire := start
		kicked := 0
		winEnd, winCPU, winK := start+int64(fleetCPUWindow), cpu0, 0
		for k := 0; ; k++ {
			due := start + int64(k)*interval
			if due >= winEnd && k > winK {
				c := cpuSeconds()
				ph.cpuWin = append(ph.cpuWin, (c-winCPU)*1000/float64(k-winK))
				winEnd, winCPU, winK = winEnd+int64(fleetCPUWindow), c, k
			}
			if due >= end {
				break
			}
			if wait := time.Duration(due - nowNS()); wait > 0 {
				time.Sleep(wait)
			}
			now := nowNS()
			ph.late = append(ph.late, float64(now-due)/1e6)
			tracing.Store(cfg.Trace && pi == 1)
			tr.enable(tracing.Load())
			act := int((now-runStart)/int64(fleetRotate)) * 4
			activeStart.Store(int64(base + act))
			if kicked < fleetReattaches && due-start >= per*int64(kicked+1)/(fleetReattaches+1) {
				kick <- ph
				kicked++
			}
			s := rig.sessions[(base+act+k%fleetActive)%fleetSessions]
			ph.offered++
			offered++
			if s.dead.Load() {
				failedDead++
				continue
			}
			n := s.slot
			s.slot++
			id := pi*1_000_000 + k
			// The sample is registered inside Do: the server flushes under
			// the Host lock, so no apply of the update can precede it.
			w, run := timedDo(s.host, func(d *xserver.Display) {
				r, want := paintUpdate(d, s.win, s.idx, n)
				s.watch.add(rectSample{ID: id, StartNS: due, Rect: r, Want: want})
			})
			doWait = append(doWait, float64(w)/1e3)
			translate = append(translate, float64(run)/1e3)
			tr.add(id, spanDoWait, due, due+w)
			tr.add(id, spanTranslate, due+w, due+w+run)
			if now >= nextExpire {
				nextExpire = now + int64(100*time.Millisecond)
				for _, s := range rig.sessions {
					expired += s.watch.expire(now, int64(fleetDeadline))
				}
			}
		}
		ph.cpuS = cpuSeconds() - cpu0
		ph.bytes = totalBytes() - bytes0
		for _, s := range rig.sessions {
			ph.pending += s.watch.size()
		}
	}
	close(kick)
	<-reattachDone
	// Drain: every pending sample gets until its deadline.
	drainEnd := nowNS() + int64(fleetDeadline)
	for nowNS() < drainEnd {
		left := 0
		for _, s := range rig.sessions {
			left += s.watch.size()
		}
		if left == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, s := range rig.sessions {
		expired += s.watch.expire(nowNS(), 0)
	}
	tr.enable(false)
	runtime.ReadMemStats(&ms1)
	ps1 := pool.Stats()

	// Every writer of the shared results has stopped: the reattacher
	// has exited and no sample is pending, so no hook can resolve one.
	// Taking the lock once orders their last writes before the reads
	// below.
	mu.Lock()
	mu.Unlock()
	for i := 0; i < offered; i++ {
		out.Tally.add(i >= failedDead+expired)
	}
	out.Tally.attempted += loadResumes.attempted
	out.Tally.failed += loadResumes.failed
	var all, wins []float64
	var mOffered int
	var mCPU, mKB, mCPUWin float64
	capacity := 0
	for pi, ph := range phases {
		if pi < fleetMeasured {
			all = append(all, ph.glass...)
			wins = append(wins, windowQuantiles(ph.glassAt, ph.startNS, int64(fleetGlassWindow), 0.9,
				int(int64(ph.rate)*int64(fleetGlassWindow)/int64(time.Second))/2)...)
			mOffered += ph.offered
			mCPU += ph.cpuS
			mCPUWin += median(ph.cpuWin) * float64(ph.offered)
			mKB += float64(ph.bytes)/1024 - ph.resumeKB
		}
		p50, p90, p99 := median(ph.glass), percentile(ph.glass, 0.9), percentile(ph.glass, 0.99)
		half := len(ph.late) / 2
		lateGrow := median(ph.late[half:]) - median(ph.late[:half])
		ok := p90 <= float64(fleetLimit.Milliseconds()) && ph.pending <= ph.rate/10 && lateGrow < 10
		if ok && ph.rate > capacity {
			capacity = ph.rate
		}
		say("fleet: rate %4d/s: offered %d, glass p50 %.2f p90 %.2f p99 %.2f ms (n=%d, %d beyond p99), pending at end %d, generator late p50 %.3f max %.3f ms, late growth %+.3f ms, %.3f ms CPU per update, meets limit: %v",
			ph.rate, ph.offered, p50, p90, p99, len(ph.glass), beyond(ph.glass, 0.99),
			ph.pending, median(ph.late), percentile(ph.late, 1), lateGrow, ph.cpuS*1000/float64(ph.offered), ok)
	}
	if len(all) == 0 {
		return nil, errors.New("no glass samples")
	}
	out.E2E["glass_p50_ms"] = median(all)
	// The median of the windows' p90s: bursts of load from outside the
	// process inflate the tail of the windows they fall in, not the run's
	// figure.
	out.E2E["glass_p90_ms"] = median(wins)
	say("fleet: glass over the measured rates %v p50 %.2f p90 %.2f ms (n=%d, %d beyond p90)",
		rates[:fleetMeasured], out.E2E["glass_p50_ms"], percentile(all, 0.9), len(all), beyond(all, 0.9))
	say("fleet: glass_p90_ms %.2f ms, the median p90 of %d windows of %v; per window %.2f",
		out.E2E["glass_p90_ms"], len(wins), fleetGlassWindow, wins)
	ontime := 0
	for _, g := range all {
		if g <= float64(fleetLimit.Milliseconds()) {
			ontime++
		}
	}
	out.E2E["ontime_ratio"] = float64(ontime) / float64(mOffered)
	out.E2E["kb_per_update"] = mKB / float64(mOffered)
	// Each measured rate's median over its windows, weighted by the
	// updates it offered: a burst of load from outside the process
	// inflates the windows it falls in, not the run's figure.
	out.E2E["cpu_ms_per_update"] = mCPUWin / float64(mOffered)
	say("fleet: CPU per update over the measured rates: %.4f ms from windows of %v, %.4f ms over the whole phases",
		out.E2E["cpu_ms_per_update"], fleetCPUWindow, mCPU*1000/float64(mOffered))
	if !cfg.Trace {
		say("fleet: capacity_updates_per_s %d (highest offered rate with glass p90 <= %v and no growing backlog)", capacity, fleetLimit)
	}
	say("fleet: %d updates offered, %d to dead sessions, %d missed the %v deadline; %d reattaches under load, %d failed",
		offered, failedDead, expired, fleetDeadline, loadResumes.attempted, loadResumes.failed)

	// Resume samples on the settled fleet: every third one cold.
	var resumeMS, resumeCold []float64
	var resumeKB float64
	for i := 0; i < fleetResumes; i++ {
		// A pause lets the previous resume's ladder moves settle.
		time.Sleep(fleetResumeGap)
		s := rig.sessions[(base+i*5)%fleetSessions]
		if s.dead.Load() {
			out.Tally.add(false)
			continue
		}
		cold := i%3 == 2
		g, b, ok := s.resume(cold)
		out.Tally.add(ok)
		if !ok {
			continue
		}
		resumeMS = append(resumeMS, float64(g)/1e6)
		if cold {
			resumeCold = append(resumeCold, float64(g)/1e6)
		}
		resumeKB += float64(b) / 1024
	}
	if len(resumeMS) == 0 {
		return nil, errors.New("no reattach converged")
	}
	out.E2E["resume_p50_ms"] = median(resumeMS)
	say("fleet: %d resumes on the settled fleet: p50 %.2f ms (n=%d), cold p50 %.2f ms (n=%d), %.1f KB each; samples %.1f",
		fleetResumes, median(resumeMS), len(resumeMS), median(resumeCold), len(resumeCold), resumeKB/float64(len(resumeMS)), resumeMS)
	var notices int64
	for _, s := range rig.sessions {
		notices += s.notices.Load()
	}
	reg := rig.fleet.Telemetry()
	say("fleet: %d degrade notices; server counters: %d ladder transitions, %d overload resyncs, %d slow-client resyncs, %d cache hits, %d cache stores, %d cache-miss repairs, %d warm / %d cold reattaches",
		notices, reg.Total("thinc_overload_transitions_total"), reg.Total("thinc_overload_resyncs_total"),
		reg.Total("thinc_session_slow_resyncs_total"), reg.Total("thinc_cache_hits_total"),
		reg.Total("thinc_cache_stores_total"), reg.Total("thinc_cache_miss_repairs_total"),
		reg.Total("thinc_reattach_warm_total"), reg.Total("thinc_reattach_cold_total"))
	e2e := readHist(histOf(reg, "thinc_e2e_latency_us", telemetry.L("rung", overload.RungName(0))), 0.5)
	say("fleet: cross-check server thinc_e2e_latency_us p50 %s beside glass_p50 %.0f us",
		e2e, out.E2E["glass_p50_ms"]*1e3)

	// Byte-identical convergence of every session.
	for _, s := range rig.sessions {
		if s.dead.Load() {
			continue
		}
		_, ok := s.waitConverged(0, 10*time.Second, false)
		if ok {
			want := s.host.ScreenChecksum()
			s.mu.Lock()
			ok = s.cl.FB().Checksum() == want
			s.mu.Unlock()
		}
		if !ok {
			out.Correct = false
			say("fleet: FINAL CHECK FAILED: session %d differs from its server screen", s.idx)
		}
	}

	if cfg.Trace {
		L := out.Layers
		L["server.do_wait_us_p50"] = median(doWait)
		L["server.do_wait_us_p99"] = percentile(doWait, 0.99)
		L["core.translate_us_p50"] = median(translate)
		L["shard.wakes"] = float64(ps1.Wakes-ps0.Wakes) / float64(offered)
		L["shard.runs"] = float64(ps1.Runs-ps0.Runs) / float64(offered)
		L["shard.max_depth"] = float64(ps1.MaxDepth)
		L["shard.wheel_lag_ns"] = float64(rig.fleet.Scheduler().Wheel().Stats().LagNS)
		for _, h := range []struct{ series, name string }{
			{"thinc_shard_task_wait_ns", "shard.task_wait"},
			{"thinc_shard_task_run_ns", "shard.task_run"},
		} {
			hr := readHist(histOf(reg, h.series), 0.99)
			L[h.name+"_overflow"] = float64(hr.Overflowed)
			if hr.Overflow {
				// The quantile is past the last bucket: report -1, never a
				// made-up value.
				L[h.name+"_p99_us"] = -1
			} else {
				L[h.name+"_p99_us"] = hr.Value / 1e3
			}
			say("fleet: %s p99 %s", h.series, hr)
		}
		L["server.resync_kb"] = resumeKB / float64(len(resumeMS))
		var hits, stores, saved float64
		for _, s := range rig.sessions {
			st := s.cl.Stats()
			hits += float64(st.CachePainted)
			stores += float64(st.CacheStored)
			saved += float64(st.CacheSavedBytes)
		}
		if hits+stores > 0 {
			L["payloadcache.hit_ratio"] = hits / (hits + stores)
		}
		L["payloadcache.saved_kb"] = saved / 1024 / float64(offered)
		gcDelta(&ms0, &ms1, L)
		if err := heapLayers(fleetSessions, L); err != nil {
			return nil, err
		}
		if err := traceSummary(cfg, tr, untracedG, tracedG, L); err != nil {
			return nil, err
		}
		var win *xserver.Window
		prep := func(d *xserver.Display) {
			win = d.CreateWindow(geom.XYWH(0, 0, fleetW, fleetH))
			drawDesktop(d, win, 0)
		}
		var updates []func(*xserver.Display)
		for n := 0; n < 200; n++ {
			n := n
			updates = append(updates, func(d *xserver.Display) { paintUpdate(d, win, 0, n) })
		}
		if err := replayLayers(fleetW, fleetH, prep, updates, L); err != nil {
			return nil, err
		}
	}
	return out, nil
}
