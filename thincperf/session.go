package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"thinc/internal/auth"
	"thinc/internal/client"
	"thinc/internal/compress"
	"thinc/internal/core"
	"thinc/internal/fb"
	"thinc/internal/pixel"
	"thinc/internal/server"
	"thinc/internal/xserver"
)

const (
	benchUser   = "bench"
	benchSecret = "pw"
)

func benchGate() *auth.Authenticator {
	acc := auth.NewAccounts()
	acc.Add(benchUser, benchSecret)
	return auth.NewAuthenticator(benchUser, acc)
}

// hostOptions is the session configuration thinc-server uses, with the
// payload cache granted: PNG raw codec, integrity audit and e2e marks
// on at their defaults.
func hostOptions() server.Options {
	return server.Options{
		Core:              core.Options{RawCodec: compress.CodecPNG},
		HeartbeatInterval: time.Second,
		DetachGrace:       30 * time.Second,
		MaxBacklogBytes:   32 << 20,
		CacheKB:           16 << 10,
		AuditInterval:     2 * time.Second,
	}
}

// tcpSession is one server.Host serving one client.Conn over loopback
// TCP: the single-session substrate of the web and av workloads.
type tcpSession struct {
	host      *server.Host
	ln        net.Listener
	serveDone chan error
	w, h      int

	cn      *client.Conn
	runDone chan error // Run's result; nil while Run is not running

	mu sync.Mutex
	nc net.Conn // current transport, closed to force a reattach

	// onApplied is the workload's per-message hook, called on Run's
	// goroutine as each message finishes applying.
	onApplied func(now int64, a applied)

	screen []pixel.ARGB // scratch copy of the server screen for matches

	bytes atomic.Int64 // client-received wire bytes
	streamClock
}

// newTCPSession starts a host of w x h serving on a loopback port.
func newTCPSession(w, h int, onApplied func(int64, applied), screen []pixel.ARGB) (*tcpSession, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &tcpSession{
		host:      server.NewHost(w, h, benchGate(), hostOptions()),
		ln:        ln,
		serveDone: make(chan error, 1),
		w:         w, h: h,
		onApplied: onApplied,
		screen:    screen,
	}
	go func() { s.serveDone <- s.host.Serve(ln) }()
	return s, nil
}

// applied is the meter hook: byte and paint accounting, then the
// workload's own hook.
func (s *tcpSession) applied(now int64, a applied) {
	s.bytes.Add(int64(a.Size))
	if paints(a.Type) {
		s.lastPaint.Store(now)
	}
	if s.onApplied != nil {
		s.onApplied(now, a)
	}
}

// connect dials, handshakes and starts Run. It does not wait for the
// initial sync.
func (s *tcpSession) connect() error {
	dial := func() (net.Conn, error) {
		nc, err := net.Dial("tcp", s.ln.Addr().String())
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.nc = nc
		s.mu.Unlock()
		return nc, nil
	}
	cn, err := client.DialWith(dial, benchUser, benchSecret, s.w, s.h)
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	cn.SetReadWrapper(func(r io.Reader) io.Reader {
		m := newStreamMeter(r, s.applied)
		m.activity = &s.lastByte
		return m
	})
	s.cn = cn
	s.start()
	return nil
}

func (s *tcpSession) start() {
	s.runDone = make(chan error, 1)
	go func() { s.runDone <- s.cn.Run() }()
}

// clientChecksum digests the client framebuffer between applies.
func (s *tcpSession) clientChecksum() uint32 {
	var c uint32
	s.cn.WithFB(func(f *fb.Framebuffer) { c = f.Checksum() })
	return c
}

// matches compares the client framebuffer with the server's screen
// pixel by pixel. It copies the screen under the Host lock into a
// reused buffer and compares it under the client's lock, so neither
// lock is held inside the other and nothing is allocated per check (a
// checksum of each side would allocate a screen-sized buffer twice per
// sample).
func (s *tcpSession) matches() bool {
	s.host.Do(func(d *xserver.Display) { s.screen = append(s.screen[:0], d.Screen().Pix()...) })
	eq := false
	s.cn.WithFB(func(f *fb.Framebuffer) { eq = pixEqual(f.Pix(), s.screen) })
	return eq
}

// converge waits until the client has applied a pixel-changing message
// after startNS, its stream has gone quiet and its framebuffer equals
// the server's screen; it returns the glass latency from startNS and
// whether the client converged before the deadline.
func (s *tcpSession) converge(startNS int64, deadline time.Duration) (int64, bool) {
	return s.settle(startNS, startNS+int64(deadline), true, nil, s.matches)
}

// verify is the final correctness check: once the stream is quiet, the
// client framebuffer's fb.Checksum must equal Host.ScreenChecksum.
func (s *tcpSession) verify(deadline time.Duration) bool {
	_, ok := s.settle(0, nowNS()+int64(deadline), false, nil, func() bool {
		return s.host.ScreenChecksum() == s.clientChecksum()
	})
	return ok
}

// setupOnce is one timed set-up of a single-session workload on a
// fresh host prepared by prep (outside the timing): connect, handshake
// and initial full-screen sync. It starts from a collected heap, so the
// garbage earlier hosts left does not decide when a collection lands in
// it.
func setupOnce(w, h int, onApplied func(int64, applied), prep func(*xserver.Display), screen []pixel.ARGB) (*tcpSession, float64, error) {
	gc()
	s, err := newTCPSession(w, h, onApplied, screen)
	if err != nil {
		return nil, 0, err
	}
	timedDo(s.host, prep)
	start := nowNS()
	if err := s.connect(); err != nil {
		s.close()
		return nil, 0, err
	}
	g, ok := s.converge(start, 20*time.Second)
	if !ok {
		s.close()
		return nil, 0, errors.New("initial sync did not converge")
	}
	return s, float64(g) / 1e9, nil
}

// setupSession runs n set-ups and keeps the last; it returns every
// set-up time and the heap the kept host and its attached session hold.
func setupSession(n, w, h int, onApplied func(int64, applied), prep func(*xserver.Display)) (*tcpSession, []float64, int64, error) {
	var times []float64
	// The convergence check's copy of the screen is benchmark memory:
	// allocate it before the heap is read, so it is not counted.
	screen := make([]pixel.ARGB, 0, w*h)
	for i := 0; ; i++ {
		var before runtime.MemStats
		if i == n-1 {
			gc()
			runtime.ReadMemStats(&before)
		}
		s, sec, err := setupOnce(w, h, onApplied, prep, screen)
		if err != nil {
			return nil, nil, 0, err
		}
		times = append(times, sec)
		if i < n-1 {
			s.close()
			continue
		}
		gc()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		return s, times, int64(after.HeapAlloc) - int64(before.HeapAlloc), nil
	}
}

// moreSetups runs n further set-ups, each closed at once. Workloads run
// them after the measured phase, so a run's set-up samples span the run
// rather than one second of it.
func moreSetups(n, w, h int, prep func(*xserver.Display), screen []pixel.ARGB) ([]float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		s, sec, err := setupOnce(w, h, nil, prep, screen)
		if err != nil {
			return nil, err
		}
		s.close()
		times = append(times, sec)
	}
	return times, nil
}

// resume drops the client's transport, waits for the server to retain
// the session, and reattaches by ticket; the sample runs from the
// reattach until the client has converged. The bytes it received are
// returned so callers can keep them out of per-update traffic.
func (s *tcpSession) resume() (ns, bytes int64, ok bool) {
	s.mu.Lock()
	nc := s.nc
	s.mu.Unlock()
	detached := s.host.NumDetached()
	nc.Close()
	<-s.runDone
	s.runDone = nil // Run has returned; start sets it again
	wait := time.Now().Add(5 * time.Second)
	for s.host.NumDetached() <= detached {
		if time.Now().After(wait) {
			return 0, 0, false
		}
		time.Sleep(time.Millisecond)
	}
	b0 := s.bytes.Load()
	start := nowNS()
	for {
		err := s.cn.Redial()
		if err == nil {
			break
		}
		var busy *client.BusyError
		if !errors.As(err, &busy) || time.Since(wait) > 5*time.Second {
			return 0, 0, false
		}
		time.Sleep(busy.RetryAfter)
	}
	s.start()
	g, ok := s.converge(start, 10*time.Second)
	return g, s.bytes.Load() - b0, ok
}

// timedDo is Host.Do with the lock wait and the callback duration
// measured around it.
func timedDo(h *server.Host, f func(d *xserver.Display)) (waitNS, runNS int64) {
	t0 := nowNS()
	var t1 int64
	h.Do(func(d *xserver.Display) {
		t1 = nowNS()
		f(d)
	})
	return t1 - t0, nowNS() - t1
}

// close stops the client, the listener and the host, and waits for
// each.
func (s *tcpSession) close() {
	if s.cn != nil {
		s.cn.Close()
		if s.runDone != nil {
			<-s.runDone
		}
	}
	s.ln.Close()
	s.host.Close()
	<-s.serveDone
}
