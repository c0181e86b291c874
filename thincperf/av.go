package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"thinc/internal/audio"
	"thinc/internal/fb"
	"thinc/internal/geom"
	"thinc/internal/overload"
	"thinc/internal/pixel"
	"thinc/internal/telemetry"
	"thinc/internal/wire"
	"thinc/internal/workload"
	"thinc/internal/xserver"
)

const (
	avW, avH = 1024, 768
	// The clip plays full-screen above a 24-pixel status line, like a
	// media player's status bar; the status line is the glass sample.
	avStatusH     = 24
	avLoopFrames  = 48 // distinct decoded frames cycled through (2s of clip)
	avStatusLimit = 5 * time.Second
	// avWindow is the window glass_p90_ms is taken over (48 samples);
	// the run reports the median of the windows' p90s.
	avWindow = 2 * time.Second
)

var (
	avVideoRect  = geom.XYWH(0, 0, avW, avH-avStatusH)
	avStatusRect = geom.XYWH(0, avH-avStatusH, avW, avStatusH)
)

// avPlayer is the application side of the av workload: a video port,
// an audio stream, and the status-line window, all on the Host.
type avPlayer struct {
	clip   *workload.VideoClip
	frames []*pixel.YV12Image
	vp     *xserver.VideoPort
	status *xserver.Window
}

// avPoster is the clip frame on screen before playback: fixed, so
// set-up does not depend on the seed. The cost of the initial sync
// depends on the frame (clip frames 2 and 8 took about 150ms to sync
// where frames 0, 1, 3 and 400 took about 90ms).
const avPoster = 0

func (p *avPlayer) open(d *xserver.Display) {
	d.FillRect(d.CreateWindow(avVideoRect), &xserver.GC{Fg: pixel.RGB(0, 0, 0)}, avVideoRect)
	p.status = d.CreateWindow(avStatusRect)
	p.vp = d.CreateVideoPort(p.clip.W, p.clip.H, avVideoRect)
	p.vp.PutFrame(p.clip.Frame(avPoster), p.clip.PTS(0))
	p.drawStatus(d, 0)
}

func (p *avPlayer) putFrame(k int) {
	p.vp.PutFrame(p.frames[k%len(p.frames)], p.clip.PTS(k))
}

// drawStatus redraws the status line for update k and returns the
// server's pixels in it.
func (p *avPlayer) drawStatus(d *xserver.Display, k int) []pixel.ARGB {
	d.FillRect(p.status, &xserver.GC{Fg: pixel.RGB(32, 32, 40)}, geom.XYWH(0, 0, avW, avStatusH))
	d.DrawText(p.status, &xserver.GC{Fg: pixel.RGB(230, 230, 230)}, 8, 8,
		fmt.Sprintf("status %05d  frame %05d  %02d:%06.3f", k, k, k/1440, float64(k%1440)/24))
	return d.Screen().ReadImage(avStatusRect)
}

// playout records when the client showed each frame of the clip: the
// slot a VideoFrame's PTS maps to, and the apply time of its first
// showing once playback has started.
type playout struct {
	mu    sync.Mutex
	ivUS  uint64  // the clip's frame interval, its PTS step (µs)
	shown []int64 // client apply time per slot, 0 = never
	on    bool
}

func newPlayout(clip *workload.VideoClip, slots int) *playout {
	return &playout{ivUS: uint64(clip.FrameInterval()), shown: make([]int64, slots)}
}

// slot maps a PTS to its frame index. The clip's interval is truncated
// to whole microseconds, so PTS(k) is k*ivUS exactly; rounding keeps a
// PTS a microsecond off its slot in the same slot.
func (p *playout) slot(pts uint64) int { return int((pts + p.ivUS/2) / p.ivUS) }

// start begins recording: frames shown before playback (the set-up's
// first frame) do not count.
func (p *playout) start() {
	p.mu.Lock()
	p.on = true
	p.mu.Unlock()
}

// show records that the client applied the frame with this PTS at now.
func (p *playout) show(now int64, pts uint64) {
	k := p.slot(pts)
	p.mu.Lock()
	if p.on && k < len(p.shown) && p.shown[k] == 0 {
		p.shown[k] = now
	}
	p.mu.Unlock()
}

// shownUpTo reports whether frame n-1, the last of n offered, was shown.
func (p *playout) shownUpTo(n int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return n == 0 || p.shown[n-1] != 0
}

// quality counts A/V quality as the paper does: the client plays the
// clip's schedule (frame k due at startNS + k*interval) on a playout
// clock whose delay it sets from the first second of frames it shows
// (their median lateness), and a frame is on time when it is shown no
// later than one frame interval after its slot on that clock. Frames
// never shown, or shown later, are not. It returns the frames shown,
// those on time, and the playout delay in ns.
func (p *playout) quality(startNS int64, frames, fps int) (shown, ontime int, delayNS float64) {
	iv := int64(p.ivUS) * int64(time.Microsecond)
	p.mu.Lock()
	var offs []float64
	for k := 0; k < frames; k++ {
		if p.shown[k] != 0 {
			offs = append(offs, float64(p.shown[k]-startNS-int64(k)*iv))
		}
	}
	p.mu.Unlock()
	delayNS = median(offs[:min(len(offs), fps)])
	for _, off := range offs {
		if off <= delayNS+float64(iv) {
			ontime++
		}
	}
	return len(offs), ontime, delayNS
}

// runAV is the av workload: the paper's 352x240 24fps clip played
// full-screen on a 1024x768 session with its 44.1kHz audio, open loop
// on the clip's schedule, with a status-line update with every frame.
func runAV(cfg config) (*outcome, error) {
	out := newOutcome()
	clip := workload.DefaultClip()
	p := &avPlayer{clip: clip}
	// The seed picks where in the clip playback starts.
	first := cfg.Rand.Intn(clip.NumFrames() - avLoopFrames)
	for i := 0; i < avLoopFrames; i++ {
		p.frames = append(p.frames, clip.Frame(first+i))
	}
	track := workload.DefaultAudio()
	var chunks [][]byte
	for i := 0; i < 20; i++ {
		chunks = append(chunks, track.Chunk(first+i))
	}

	interval := time.Duration(clip.FrameInterval()) * time.Microsecond
	maxFrames := int(cfg.Duration/interval) + 2
	play := newPlayout(clip, maxFrames)
	var (
		mu        sync.Mutex
		statusApp atomic.Int64
		glass     []float64
		glassAt   []timed
		traced    []float64
		untraced  []float64
		tracing   atomic.Bool
	)
	tr := &tracer{}
	watch := &rectWatch{}
	var s *tcpSession
	onStatus := func(r rectSample, g int64) {
		ms := float64(g) / 1e6
		mu.Lock()
		glass = append(glass, ms)
		glassAt = append(glassAt, timed{r.StartNS, ms})
		if tracing.Load() {
			traced = append(traced, ms)
		} else {
			untraced = append(untraced, ms)
		}
		mu.Unlock()
		tr.add(r.ID, spanGlass, r.StartNS, r.StartNS+g)
		tr.add(r.ID, spanApply, r.StartNS, r.StartNS+statusApp.Swap(0))
	}
	s, setups, heapB, err := setupSession(setupsBefore, avW, avH, func(now int64, a applied) {
		switch {
		case a.Type == wire.TVideoFrame:
			play.show(now, a.PTS)
		case paints(a.Type) && watch.size() > 0:
			statusApp.Add(a.ApplyNS)
			s.cn.WithFB(func(f *fb.Framebuffer) { watch.check(f, now, onStatus) })
		}
	}, p.open)
	if err != nil {
		return nil, err
	}
	defer s.close()
	out.E2E["heap_mb_per_session"] = float64(heapB) / (1 << 20)
	say("av: heap %.2f MB for the session", float64(heapB)/(1<<20))

	// Open loop on the clip's schedule: frame k is due at k/24s, audio
	// chunk j at j*50ms, and status update u with frame u, right behind
	// it: every status sample competes with a bulk frame the same way,
	// and about half also with an audio chunk. Each status sample is
	// timed from when it was due.
	stream := s.host.Audio().OpenStream(audio.CD)
	defer stream.Close()
	var doWait, translate, late []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, bytes0 := cpuSeconds(), s.bytes.Load()
	start := nowNS()
	play.start()
	frames, chunk, statuses := 0, 0, 0
	audioEvery := time.Duration(track.ChunkDur) * time.Microsecond
	end := start + int64(cfg.Duration)
	for {
		dueF := start + int64(frames)*int64(interval)
		dueA := start + int64(chunk)*int64(audioEvery)
		dueS := start + int64(statuses+1)*int64(interval)
		due := min(dueF, dueA, dueS)
		if due >= end || frames >= maxFrames {
			break
		}
		if wait := time.Duration(due - nowNS()); wait > 0 {
			time.Sleep(wait)
		}
		late = append(late, float64(nowNS()-due)/1e6)
		tracing.Store(cfg.Trace && due-start >= int64(cfg.Duration)/2)
		tr.enable(tracing.Load())
		switch due {
		case dueF:
			k := frames
			w, r := timedDo(s.host, func(*xserver.Display) { p.putFrame(k) })
			doWait = append(doWait, float64(w)/1e3)
			translate = append(translate, float64(r)/1e3)
			frames++
		case dueA:
			if _, err := stream.Write(chunks[chunk%len(chunks)]); err != nil {
				return nil, fmt.Errorf("audio: %w", err)
			}
			chunk++
		default:
			statuses++
			k := statuses
			// The sample is registered inside Do: the server flushes under
			// the Host lock, so no apply of the update can precede it.
			w, r := timedDo(s.host, func(d *xserver.Display) {
				watch.add(rectSample{ID: k, StartNS: due, Rect: avStatusRect, Want: p.drawStatus(d, k)})
			})
			doWait = append(doWait, float64(w)/1e3)
			translate = append(translate, float64(r)/1e3)
			tr.add(k, spanDoWait, due, due+w)
			tr.add(k, spanTranslate, due+w, due+w+r)
		}
	}
	// Let the tail drain, then fail any status sample still pending.
	drain := nowNS() + int64(avStatusLimit)
	for (watch.size() > 0 || !play.shownUpTo(frames)) && nowNS() < drain {
		time.Sleep(5 * time.Millisecond)
	}
	tr.enable(false)
	missed := watch.expire(nowNS(), 0)
	cpu1, bytes1 := cpuSeconds(), s.bytes.Load()
	runtime.ReadMemStats(&ms1)

	shown, ontime, delay := play.quality(start, frames, clip.FPS)
	mu.Lock()
	g := append([]float64(nil), glass...)
	wins := windowQuantiles(glassAt, start, int64(avWindow), 0.9, int(avWindow/interval)/2)
	mu.Unlock()
	for i := 0; i < statuses; i++ {
		out.Tally.add(i >= missed)
	}
	if frames == 0 || len(wins) == 0 {
		return nil, fmt.Errorf("no frames or status samples measured")
	}
	out.E2E["glass_p50_ms"] = median(g)
	// The median of the windows' p90s: bursts of load from outside the
	// process inflate the tail of the windows they fall in, not the run's
	// figure.
	out.E2E["glass_p90_ms"] = median(wins)
	out.E2E["ontime_ratio"] = float64(ontime) / float64(frames)
	out.E2E["kb_per_update"] = float64(bytes1-bytes0) / float64(frames) / 1024
	out.E2E["cpu_ms_per_update"] = (cpu1 - cpu0) * 1000 / float64(frames)
	lp50 := percentile(late, 0.5)
	lp99 := percentile(late, 0.99)
	lmax := percentile(late, 1)
	say("av: %d frames offered, %d shown, %d on time (playout delay %.2f ms); %d audio chunks; %d status updates, %d missed",
		frames, shown, ontime, delay/1e6, chunk, statuses, missed)
	say("av: status glass p50 %.2f ms p90 %.2f ms (n=%d, %d beyond p90); generator late p50 %.3f p99 %.3f max %.3f ms (n=%d)",
		out.E2E["glass_p50_ms"], percentile(g, 0.9), len(g), beyond(g, 0.9), lp50, lp99, lmax, len(late))
	say("av: glass_p90_ms %.2f ms, the median p90 of %d windows of %v; per window %.2f",
		out.E2E["glass_p90_ms"], len(wins), avWindow, wins)
	e2e := readHist(histOf(s.host.Telemetry(), "thinc_e2e_latency_us",
		telemetry.L("rung", overload.RungName(0))), 0.5)
	say("av: cross-check server thinc_e2e_latency_us p50 %s beside glass_p50 %.0f us",
		e2e, out.E2E["glass_p50_ms"]*1e3)

	cs := s.cn.Stats()
	say("av: client saw %d degrade notices (last rung %d), %d audit probes, %d marks acked, %d reconnects",
		cs.DegradeNotices, cs.DegradeRung, cs.AuditProbes, cs.MarkAcksSent, cs.Reconnects)
	resume, err := resumePhase(s, out)
	if err != nil {
		return nil, err
	}
	out.E2E["resume_p50_ms"] = median(resume)
	if !s.verify(10 * time.Second) {
		out.Correct = false
		say("av: FINAL CHECK FAILED: client framebuffer differs from the server screen")
	}
	later, err := moreSetups(setupsAfter, avW, avH, (&avPlayer{clip: clip}).open, s.screen)
	if err != nil {
		return nil, err
	}
	setups = append(setups, later...)
	out.E2E["setup_s"] = median(setups)
	out.Layers["server.attach_ms"] = median(setups) * 1e3
	say("av: setup %.4f s (median of %d, the last %d after the measured phase)", setups, len(setups), len(later))
	if cfg.Trace {
		out.Layers["server.do_wait_us_p50"] = median(doWait)
		out.Layers["server.do_wait_us_p99"] = percentile(doWait, 0.99)
		out.Layers["core.translate_us_p50"] = median(translate)
		gcDelta(&ms0, &ms1, out.Layers)
		if err := heapLayers(1, out.Layers); err != nil {
			return nil, err
		}
		mu.Lock()
		u, t := append([]float64(nil), untraced...), append([]float64(nil), traced...)
		mu.Unlock()
		if err := traceSummary(cfg, tr, u, t, out.Layers); err != nil {
			return nil, err
		}
		rp := &avPlayer{clip: clip, frames: p.frames}
		var updates []func(*xserver.Display)
		for k := 1; k <= 24; k++ {
			k := k
			updates = append(updates, func(*xserver.Display) { rp.putFrame(k) },
				func(d *xserver.Display) { rp.drawStatus(d, k) })
		}
		if err := replayLayers(avW, avH, rp.open, updates, out.Layers); err != nil {
			return nil, err
		}
	}
	return out, nil
}
