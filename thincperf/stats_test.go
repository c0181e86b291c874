package main

import (
	"math/rand"
	"strings"
	"testing"

	"thinc/internal/telemetry"
	"thinc/internal/workload"
)

func TestPercentileNearestRank(t *testing.T) {
	var s []float64
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}, {0.901, 91}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if s[0] != 100 {
		t.Fatal("percentile reordered its input")
	}
	if n := beyond(s, 0.9); n != 10 {
		t.Errorf("beyond p90 = %d, want 10", n)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestWindowQuantilesSkipsBursts(t *testing.T) {
	const w = int64(1000)
	var s []timed
	for win := int64(0); win < 5; win++ {
		for i := int64(0); i < 10; i++ {
			v := float64(i + 1) // 1..10: p90 9
			if win == 3 {
				v *= 100 // a burst inflates one window
			}
			s = append(s, timed{AtNS: 500 + win*w + i, Value: v})
		}
	}
	// Three samples past the last full window are too few to count.
	s = append(s, timed{AtNS: 500 + 5*w, Value: 1}, timed{AtNS: 500 + 5*w + 1, Value: 1}, timed{AtNS: 500 + 5*w + 2, Value: 1})
	got := windowQuantiles(s, 500, w, 0.9, 5)
	if len(got) != 5 || got[0] != 9 || got[3] != 900 {
		t.Fatalf("window p90s %v, want five with the fourth inflated", got)
	}
	if m := median(got); m != 9 {
		t.Fatalf("median over windows %v, want 9", m)
	}
	if whole := percentile(func() (v []float64) {
		for _, x := range s {
			v = append(v, x.Value)
		}
		return v
	}(), 0.9); whole < 100 {
		t.Fatalf("whole-run p90 %v; the test no longer shows the burst", whole)
	}
}

func TestTallyCountsFailures(t *testing.T) {
	var tl tally
	if tl.ratio() != 0 {
		t.Fatal("empty tally has a failure ratio")
	}
	for i := 0; i < 8; i++ {
		tl.add(i%4 != 0)
	}
	if tl.attempted != 8 || tl.failed != 2 || tl.ratio() != 0.25 {
		t.Fatalf("tally %+v ratio %v", tl, tl.ratio())
	}
}

func TestReadHistFlagsOverflow(t *testing.T) {
	s := telemetry.HistogramSnapshot{Bounds: []int64{10, 20}, Buckets: []int64{3, 1, 6}, Count: 10}
	low := readHist(s, 0.3)
	if low.Overflow || low.Value != 10 || low.Overflowed != 6 {
		t.Fatalf("p30 read %+v, want 10 with 6 overflowed", low)
	}
	if r := readHist(s, 0.4); r.Overflow || r.Value != 20 {
		t.Fatalf("p40 read %+v, want 20", r)
	}
	high := readHist(s, 0.5)
	if !high.Overflow {
		t.Fatalf("p50 read %+v should be flagged as overflow", high)
	}
	if !strings.Contains(high.String(), "OVERFLOW") {
		t.Fatalf("overflowed read printed as %q", high.String())
	}
	if r := readHist(telemetry.HistogramSnapshot{}, 0.5); r.Count != 0 || r.String() != "no samples" {
		t.Fatalf("empty read %+v", r)
	}
}

func TestWebSequenceMix(t *testing.T) {
	seq := webSequence(rand.New(rand.NewSource(7)), 600)
	again := webSequence(rand.New(rand.NewSource(7)), 600)
	seen := map[int]bool{}
	var light []int // fresh light pages in load order
	for b := 0; b < len(seq); b += webBlock {
		heavy := [2]int{}
		revisits := 0
		for k, p := range seq[b : b+webBlock] {
			if again[b+k] != p {
				t.Fatal("the same seed gave different pages")
			}
			if workload.ImageHeavy(p) {
				heavy[k/(webBlock/2)]++
				if seen[p] {
					t.Fatalf("load %d revisits image-heavy page %d", b+k, p)
				}
			}
			if seen[p] {
				revisits++
				recent := false
				for _, q := range light[max(0, len(light)-webBack):] {
					recent = recent || q == p
				}
				if !recent {
					t.Fatalf("load %d goes back further than %d light pages", b+k, webBack)
				}
			} else if !workload.ImageHeavy(p) {
				light = append(light, p)
			}
			seen[p] = true
		}
		// Every block holds the same work: one image-heavy page in each
		// half and a quarter of loads revisiting; fresh pages never run out.
		if heavy != [2]int{1, 1} {
			t.Fatalf("block at %d has image-heavy pages %v per half, want one in each", b, heavy)
		}
		if revisits != webBlock/4 {
			t.Fatalf("block at %d has %d revisits, want %d", b, revisits, webBlock/4)
		}
	}
	if seen[webHome] {
		t.Fatal("the sequence loads the home page, which set-up and resume use")
	}
}

func TestScaleHeapUnsamples(t *testing.T) {
	// One 1 MiB allocation at a 16 KiB rate is always sampled.
	if got := scaleHeap(1, 1<<20, 16<<10); got < (1<<20)-1 || got > (1<<20)+1 {
		t.Fatalf("large allocation scaled to %v", got)
	}
	// Small allocations are rarely sampled and scale up.
	if got := scaleHeap(1, 64, 16<<10); got < 16<<10 {
		t.Fatalf("small allocation scaled to %v, want about the sampling rate", got)
	}
}
