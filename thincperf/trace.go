package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Span layers recorded on the glass path of each sample. The root span
// "glass" covers the whole sample; the others are the calls the
// benchmark makes into a layer (or, for client.apply, the time Run
// spends between reads), so each one's duration is its self time.
const (
	spanGlass     = "glass"
	spanDoWait    = "server.do_wait"
	spanTranslate = "core.translate"
	spanApply     = "client.apply"
)

// spanDir is where a traced run writes its span log: the build
// directory under the checkout, which version control ignores.
const spanDir = ".bench_build"

// span is one recorded interval. Spans of one sample share Sample; a
// layer span's parent is its sample's glass span.
type span struct {
	Sample int    `json:"sample"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory while enabled and writes them out when
// the run ends. A disabled tracer records nothing, so the untraced half
// of a traced run pays nothing for it.
type tracer struct {
	mu    sync.Mutex
	on    bool
	spans []span
}

func (t *tracer) enable(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

func (t *tracer) add(sample int, layer string, start, end int64) {
	t.mu.Lock()
	if t.on {
		t.spans = append(t.spans, span{sample, layer, start, end})
	}
	t.mu.Unlock()
}

// selfTimes folds the spans into per-sample self time per layer and
// the gap between glass and the sum of the layers' self times: the
// time the sample spent waiting where the benchmark cannot see it
// (flush pacing, scheduler queues, codec, framing, cipher, transport).
// It returns the per-sample self-time sums and gaps in milliseconds,
// and per-layer totals and counts.
func (t *tracer) selfTimes() (self, gap []float64, layerNS map[string]int64, layerN map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	type acc struct {
		glass int64
		self  int64
		has   bool
	}
	bySample := map[int]*acc{}
	layerNS = map[string]int64{}
	layerN = map[string]int{}
	for _, s := range t.spans {
		a := bySample[s.Sample]
		if a == nil {
			a = &acc{}
			bySample[s.Sample] = a
		}
		d := s.End - s.Start
		if s.Layer == spanGlass {
			a.glass = d
			a.has = true
			continue
		}
		a.self += d
		layerNS[s.Layer] += d
		layerN[s.Layer]++
	}
	for _, a := range bySample {
		if !a.has {
			continue
		}
		self = append(self, float64(a.self)/1e6)
		gap = append(gap, float64(a.glass-a.self)/1e6)
	}
	return self, gap, layerNS, layerN
}

// write saves the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span log: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("span log: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("span log: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("span log: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("span log: %w", err)
	}
	return path, nil
}

// traceSummary fills the trace.* per-layer metrics from a traced run:
// glass p50 untraced and traced (the difference is the tracing
// overhead), and the p50 of per-sample self-time sums and gaps.
func traceSummary(cfg config, t *tracer, untraced, traced []float64, out map[string]float64) error {
	self, gap, layerNS, layerN := t.selfTimes()
	u, tr := median(untraced), median(traced)
	out["trace.untraced_glass_p50_ms"] = u
	out["trace.traced_glass_p50_ms"] = tr
	out["trace.overhead_ms"] = tr - u
	out["trace.self_ms_p50"] = median(self)
	out["trace.gap_ms_p50"] = median(gap)
	say("trace: glass p50 untraced %.3f ms (n=%d), traced %.3f ms (n=%d): overhead %+.3f ms",
		u, len(untraced), tr, len(traced), tr-u)
	say("trace: per-sample self-time sum p50 %.3f ms, gap to glass p50 %.3f ms (n=%d)",
		median(self), median(gap), len(self))
	for _, l := range []string{spanDoWait, spanTranslate, spanApply} {
		if n := layerN[l]; n > 0 {
			say("trace: layer %-16s self %10.3f ms total over %d spans", l, float64(layerNS[l])/1e6, n)
		}
	}
	path, err := t.write(spanDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.Workload, cfg.Seed))
	if err != nil {
		return err
	}
	say("trace: spans written to %s", path)
	return nil
}
