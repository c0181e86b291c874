package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"thinc/internal/geom"
	"thinc/internal/overload"
	"thinc/internal/telemetry"
	"thinc/internal/workload"
	"thinc/internal/xserver"
)

const (
	webW, webH = 1920, 1080
	// webThink is the user's pause between a page reaching glass and
	// the next click. It includes the 25ms quiet window the benchmark
	// waits before verifying a page.
	webThink = 50 * time.Millisecond
	// webOnTime is the page deadline counted by ontime_ratio, well above
	// the slowest page class so it counts stalls rather than page mix.
	webOnTime = 2 * time.Second
	// A run sets up setupsBefore sessions before its measured phase and
	// setupsAfter after it; setup_s is the median of all of them.
	setupsBefore = 5
	setupsAfter  = 4
	resumes      = 60
)

// webHome is the page on screen when the user connects, and the page
// the reattach samples resume onto: fixed, so set-up and resume do not
// depend on the seed.
const webHome = 0

// webBlock is the length of the load pattern webSequence repeats, and
// the window cpu_ms_per_update is measured over.
const webBlock = 12

// webBack is how far back a revisit may go, in light pages: a user
// going back to a page seen recently, so whether the cache still holds
// it depends on the cache, not on how far back the seed reached.
const webBack = 8

// webSequence draws the pages one user loads, in blocks of webBlock
// loads with a fixed make-up: one image-heavy page in each half block,
// so the p90 sits inside that class rather than on its edge, and
// exactly three of the ten light loads go back to one of the last
// webBack light pages loaded, which the payload cache serves (a quarter
// of all loads). Every other load is a page never loaded before, the
// next index of its class; image-heavy pages are always fresh, so the
// p90 does not fall between fresh and cache-served heavy pages. Pages are generated
// from their index, so the fresh ones never run out. Every seed loads
// the same fresh pages, in the same order within each class; the seed
// draws where each heavy page falls in its half and which light loads
// revisit which page, so runs differ in order and cache reuse rather
// than in the work a block holds.
func webSequence(rnd *rand.Rand, n int) []int {
	next := map[bool]int{true: webHome + 1, false: webHome + 1}
	fresh := func(heavy bool) int {
		for workload.ImageHeavy(next[heavy]) != heavy {
			next[heavy]++
		}
		p := next[heavy]
		next[heavy]++
		return p
	}
	var light []int // light pages loaded so far
	seq := make([]int, 0, n)
	for len(seq) < n {
		half := webBlock / 2
		h0, h1 := rnd.Intn(half), half+rnd.Intn(half)
		// The first light load of the sequence has nothing to revisit.
		first := -1
		if len(light) == 0 {
			first = 0
			if h0 == 0 {
				first = 1
			}
		}
		cands := make([]int, 0, webBlock)
		for k := 0; k < webBlock; k++ {
			if k != h0 && k != h1 && k != first {
				cands = append(cands, k)
			}
		}
		rnd.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		revisit := map[int]bool{cands[0]: true, cands[1]: true, cands[2]: true}
		for k := 0; k < webBlock && len(seq) < n; k++ {
			switch {
			case k == h0 || k == h1:
				seq = append(seq, fresh(true))
			case revisit[k]:
				seq = append(seq, light[len(light)-1-rnd.Intn(min(len(light), webBack))])
			default:
				p := fresh(false)
				light = append(light, p)
				seq = append(seq, p)
			}
		}
	}
	return seq
}

// webOpen puts the browser window on a display with the home page in
// it, and returns the browser.
func webOpen(d *xserver.Display) *workload.Browser {
	b := &workload.Browser{Dpy: d, Win: d.CreateWindow(geom.XYWH(0, 0, webW, webH)), DoubleBuffer: true}
	b.RenderPage(webHome)
	return b
}

// runWeb is the web workload: one 1920x1080 session configured like
// thinc-server, one client.Conn over loopback TCP, one user loading
// i-Bench-style double-buffered pages in a closed loop.
func runWeb(cfg config) (*outcome, error) {
	out := newOutcome()
	seq := webSequence(cfg.Rand, 10000)
	tr := &tracer{}
	var applyNS atomic.Int64 // client apply time of the current page
	var browser *workload.Browser
	s, setups, heapB, err := setupSession(setupsBefore, webW, webH, func(now int64, a applied) {
		if paints(a.Type) {
			applyNS.Add(a.ApplyNS)
		}
	}, func(d *xserver.Display) { browser = webOpen(d) })
	if err != nil {
		return nil, err
	}
	defer s.close()
	out.E2E["heap_mb_per_session"] = float64(heapB) / (1 << 20)
	say("web: heap %.2f MB for the session", float64(heapB)/(1<<20))

	// The measured phase. A traced run measures its first half untraced
	// and its second half traced; the end-to-end run measures it all
	// untraced.
	var glassAll, untraced, traced, doWait, translate []float64
	var loadOf []int // each glassAll sample's index in seq
	pages, ontime := 0, 0
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, bytes0 := cpuSeconds(), s.bytes.Load()
	phaseStart := time.Now()
	next := 0
	// The phase ends on a block boundary, so every run holds whole
	// blocks of the same make-up; CPU is read at each boundary.
	var blockCPU []float64
	cpuMark := cpu0
	for time.Since(phaseStart) < cfg.Duration || pages%webBlock != 0 {
		if pages > 0 && pages%webBlock == 0 {
			c := cpuSeconds()
			blockCPU = append(blockCPU, (c-cpuMark)*1000/webBlock)
			cpuMark = c
		}
		tracing := cfg.Trace && time.Since(phaseStart) >= cfg.Duration/2
		tr.enable(tracing)
		page := seq[next]
		next++
		applyNS.Store(0)
		start := nowNS()
		wait, run := timedDo(s.host, func(*xserver.Display) { browser.RenderPage(page) })
		g, ok := s.converge(start, 10*time.Second)
		out.Tally.add(ok)
		pages++
		if !ok {
			continue
		}
		ms := float64(g) / 1e6
		glassAll = append(glassAll, ms)
		loadOf = append(loadOf, next-1)
		if time.Duration(g) <= webOnTime {
			ontime++
		}
		doWait = append(doWait, float64(wait)/1e3)
		translate = append(translate, float64(run)/1e3)
		if tracing {
			traced = append(traced, ms)
			tr.add(pages, spanGlass, start, start+g)
			tr.add(pages, spanDoWait, start, start+wait)
			tr.add(pages, spanTranslate, start+wait, start+wait+run)
			tr.add(pages, spanApply, start, start+applyNS.Load())
		} else {
			untraced = append(untraced, ms)
		}
		if rest := time.Duration(start + g + int64(webThink) - nowNS()); rest > 0 {
			time.Sleep(rest)
		}
	}
	tr.enable(false)
	cpu1, bytes1 := cpuSeconds(), s.bytes.Load()
	blockCPU = append(blockCPU, (cpu1-cpuMark)*1000/webBlock)
	runtime.ReadMemStats(&ms1)

	if len(glassAll) == 0 {
		return nil, fmt.Errorf("no page of %d reached glass", pages)
	}
	out.E2E["glass_p50_ms"] = median(glassAll)
	out.E2E["glass_p90_ms"] = percentile(glassAll, 0.9)
	out.E2E["ontime_ratio"] = float64(ontime) / float64(pages)
	out.E2E["kb_per_update"] = float64(bytes1-bytes0) / float64(pages) / 1024
	// The median over blocks: a burst of load from outside the process
	// inflates the CPU a few blocks take, not the run's figure.
	out.E2E["cpu_ms_per_update"] = median(blockCPU)
	say("web: %d pages in %.1fs, glass p50 %.2f ms p90 %.2f ms (n=%d, %d beyond p90)",
		pages, time.Since(phaseStart).Seconds(), out.E2E["glass_p50_ms"], out.E2E["glass_p90_ms"],
		len(glassAll), beyond(glassAll, 0.9))
	var heavy []float64
	for i, g := range glassAll {
		if workload.ImageHeavy(seq[loadOf[i]]) {
			heavy = append(heavy, g)
		}
	}
	sort.Float64s(heavy)
	say("web: image-heavy pages (n=%d) glass sorted %.0f", len(heavy), heavy)
	say("web: CPU per page over %d blocks of %d: median %.1f ms, whole phase %.1f ms; per block %.0f",
		len(blockCPU), webBlock, median(blockCPU), (cpu1-cpu0)*1000/float64(pages), blockCPU)
	e2e := readHist(histOf(s.host.Telemetry(), "thinc_e2e_latency_us",
		telemetry.L("rung", overload.RungName(0))), 0.5)
	say("web: cross-check server thinc_e2e_latency_us p50 %s beside glass_p50 %.0f us",
		e2e, out.E2E["glass_p50_ms"]*1e3)

	st := s.cn.Stats()
	if hits := st.CachePainted + st.CacheStored; hits > 0 {
		out.Layers["payloadcache.hit_ratio"] = float64(st.CachePainted) / float64(hits)
	}
	out.Layers["payloadcache.saved_kb"] = float64(st.CacheSavedBytes) / 1024 / float64(pages)

	say("web: client saw %d degrade notices (last rung %d), %d audit probes, %d marks acked, %d reconnects",
		st.DegradeNotices, st.DegradeRung, st.AuditProbes, st.MarkAcksSent, st.Reconnects)
	// Resume onto the home page, so the sample does not depend on which
	// page the seed left on screen.
	home := nowNS()
	timedDo(s.host, func(*xserver.Display) { browser.RenderPage(webHome) })
	if _, ok := s.converge(home, 10*time.Second); !ok {
		return nil, fmt.Errorf("home page did not converge before the reattach samples")
	}
	resume, err := resumePhase(s, out)
	if err != nil {
		return nil, err
	}
	out.E2E["resume_p50_ms"] = median(resume)

	if !s.verify(10 * time.Second) {
		out.Correct = false
		say("web: FINAL CHECK FAILED: client framebuffer differs from the server screen")
	}
	later, err := moreSetups(setupsAfter, webW, webH, func(d *xserver.Display) { webOpen(d) }, s.screen)
	if err != nil {
		return nil, err
	}
	setups = append(setups, later...)
	out.E2E["setup_s"] = median(setups)
	out.Layers["server.attach_ms"] = median(setups) * 1e3
	say("web: setup %.4f s (median of %d, the last %d after the measured phase)", setups, len(setups), len(later))
	if cfg.Trace {
		out.Layers["server.do_wait_us_p50"] = median(doWait)
		out.Layers["server.do_wait_us_p99"] = percentile(doWait, 0.99)
		out.Layers["core.translate_us_p50"] = median(translate)
		gcDelta(&ms0, &ms1, out.Layers)
		if err := heapLayers(1, out.Layers); err != nil {
			return nil, err
		}
		if err := traceSummary(cfg, tr, untraced, traced, out.Layers); err != nil {
			return nil, err
		}
		var b *workload.Browser
		prep := func(d *xserver.Display) { b = webOpen(d) }
		var updates []func(*xserver.Display)
		for _, p := range seq[:6] {
			p := p
			updates = append(updates, func(*xserver.Display) { b.RenderPage(p) })
		}
		if err := replayLayers(webW, webH, prep, updates, out.Layers); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// resumePhase runs the reattach samples of a single-session workload
// on its settled screen: drop the transport, reattach by ticket, time
// until the client has converged.
func resumePhase(s *tcpSession, out *outcome) ([]float64, error) {
	var samples []float64
	var kb float64
	for i := 0; i < resumes; i++ {
		g, b, ok := s.resume()
		out.Tally.add(ok)
		if !ok {
			continue
		}
		samples = append(samples, float64(g)/1e6)
		kb += float64(b) / 1024
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("no reattach converged")
	}
	st := s.cn.Stats()
	say("resume: %d reattaches, p50 %.2f ms (n=%d), %.1f KB each, %d warm / %d cold; samples %.1f",
		resumes, median(samples), len(samples), kb/float64(len(samples)), st.WarmResumes, st.ColdFallbacks, samples)
	out.Layers["server.resync_kb"] = kb / float64(len(samples))
	return samples, nil
}
