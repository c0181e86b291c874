package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"

	"thinc/internal/telemetry"
)

// percentile returns the exact q-quantile (0 <= q <= 1) of samples by
// the nearest-rank method: the smallest sample with at least q of all
// samples at or below it, or 0 when there are none. It sorts a copy,
// so callers keep their order.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// timed is one sample and when it was taken (or due), in nowNS.
type timed struct {
	AtNS  int64
	Value float64
}

// windowQuantiles splits samples into consecutive windows of widthNS
// from startNS and returns the q-quantile of each window that holds at
// least minN samples, in window order. The median of these is the
// figure a workload reports where load from outside the process comes
// in bursts: a burst moves the quantile of the windows it falls in, not
// the median over windows.
func windowQuantiles(samples []timed, startNS, widthNS int64, q float64, minN int) []float64 {
	byWin := map[int64][]float64{}
	last := int64(-1)
	for _, s := range samples {
		w := (s.AtNS - startNS) / widthNS
		byWin[w] = append(byWin[w], s.Value)
		last = max(last, w)
	}
	var out []float64
	for w := int64(0); w <= last; w++ {
		if v := byWin[w]; len(v) >= minN {
			out = append(out, percentile(v, q))
		}
	}
	return out
}

// beyond counts the samples strictly above the q-quantile — the
// choosing-metrics rule reports a percentile only with at least ten.
func beyond(samples []float64, q float64) int {
	p := percentile(samples, q)
	n := 0
	for _, v := range samples {
		if v > p {
			n++
		}
	}
	return n
}

// median is percentile(samples, 0.5).
func median(samples []float64) float64 { return percentile(samples, 0.5) }

// tally is the failure accounting of one workload: every operation
// attempted (page load, video frame, desktop update, reattach) and the
// ones that failed — missed their deadline, hit a dead session, or were
// refused.
type tally struct {
	attempted, failed int
}

// add records one operation.
func (t *tally) add(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// ratio is failed ÷ attempted, 0 when nothing was attempted.
func (t tally) ratio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// histRead is one percentile read from a server telemetry histogram.
// Overflow is set when the quantile falls in the +Inf bucket: the
// histogram cannot say how large those values were, so the read is a
// flag, not a value.
type histRead struct {
	Count      int64
	Value      float64 // upper bound of the containing bucket, in native units
	Overflow   bool
	Overflowed int64 // observations in the +Inf bucket
}

// readHist locates the q-quantile's bucket in a snapshot. The value
// is the bucket's upper bound (a conservative read); a quantile in the
// overflow bucket is flagged instead.
func readHist(s telemetry.HistogramSnapshot, q float64) histRead {
	r := histRead{Count: s.Count}
	if len(s.Buckets) > 0 {
		r.Overflowed = s.Buckets[len(s.Buckets)-1]
	}
	if s.Count == 0 {
		return r
	}
	target := int64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i, c := range s.Buckets {
		seen += c
		if seen < target {
			continue
		}
		if i >= len(s.Bounds) {
			r.Overflow = true
			return r
		}
		r.Value = float64(s.Bounds[i])
		return r
	}
	r.Overflow = true
	return r
}

// String renders the read for the report, never printing a number for
// an overflowed quantile.
func (r histRead) String() string {
	if r.Count == 0 {
		return "no samples"
	}
	if r.Overflow {
		return fmt.Sprintf("OVERFLOW (quantile in +Inf bucket, n=%d, %d overflowed)", r.Count, r.Overflowed)
	}
	return fmt.Sprintf("<=%g (n=%d, %d overflowed)", r.Value, r.Count, r.Overflowed)
}

// histOf finds one histogram series in a registry by name and labels.
func histOf(reg *telemetry.Registry, name string, labels ...telemetry.Label) telemetry.HistogramSnapshot {
	for _, s := range reg.Snapshot() {
		if s.Name != name || s.Histogram == nil {
			continue
		}
		match := true
		for _, l := range labels {
			if s.Labels[l.Key] != l.Value {
				match = false
				break
			}
		}
		if match {
			return *s.Histogram
		}
	}
	return telemetry.HistogramSnapshot{}
}

// cpuSeconds returns the process's cumulative user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec) + float64(ru.Utime.Usec)/1e6 +
		float64(ru.Stime.Sec) + float64(ru.Stime.Usec)/1e6
}

// gc collects twice: the first cycle moves sync.Pool contents to the
// victim cache, the second frees them, so heap readings do not depend
// on what the pools happened to hold.
func gc() {
	runtime.GC()
	runtime.GC()
}
