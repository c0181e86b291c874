// Command thincperf is the THINC benchmark. One invocation runs one
// workload against the production packages (server.Host / server.Fleet
// serving client.Conn / client.Client), times damage-to-glass from
// outside the program, checks that every client framebuffer converged
// byte-identically, and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// traced run reports the per-layer ones, timing calls into each layer's
// public functions from this package's own files.
//
// Every workload reports every end-to-end metric:
//
//	glass_p50_ms, glass_p90_ms  damage-to-glass (glass.go): web a whole
//	                            page, av a status-line update, fleet a
//	                            desktop update, open-loop samples timed
//	                            from when they were due (fleet: glass,
//	                            ontime, kb and cpu at its measured rates);
//	                            av and fleet report the median of short
//	                            windows' p90s
//	ontime_ratio                av: frames shown within one frame interval
//	                            of their slot on the client's playout
//	                            clock; web: pages on glass within 2s;
//	                            fleet: updates within the 100ms limit
//	kb_per_update               client-received bytes per page, video
//	                            frame or desktop update
//	cpu_ms_per_update           process CPU (getrusage) per update; web
//	                            and fleet report the median over short
//	                            windows (web: blocks of 12 pages)
//	heap_mb_per_session         heap held by a host and its attached
//	                            session, client framebuffer included
//	resume_p50_ms               ticket reattach until the client converged
//	setup_s                     connect, handshake and initial sync
//	                            (fleet: every session), median of several
//	                            (web and av: some before and some after
//	                            the measured phase)
//
// Failed operations (deadline misses, dead sessions, refused
// reattaches) are the "failed" count of the JSON line, out of
// "attempted"; fleet also prints capacity_updates_per_s, the highest of
// its offered rates that met the latency limit.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash thincperf/run.sh --workload web|av|fleet --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"thinc/internal/logx"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd lists the end-to-end metrics every workload reports with
// -trace 0 (BENCHMARK.json defines their bounds).
var endToEnd = []metricDef{
	{"glass_p50_ms", "ms"},
	{"glass_p90_ms", "ms"},
	{"ontime_ratio", "ratio"},
	{"kb_per_update", "KB"},
	{"cpu_ms_per_update", "ms"},
	{"heap_mb_per_session", "MB"},
	{"resume_p50_ms", "ms"},
	{"setup_s", "s"},
}

// driverEntries are the driver.Driver entrypoints timed per layer.
var driverEntries = []string{"FillSolid", "FillTile", "FillStipple", "PutImage", "CopyArea", "VideoFrame"}

// applyTypes are the message types whose client apply cost is timed.
var applyTypes = []string{"RAW", "BITMAP", "SFILL", "PFILL", "COPY", "VIDEO_FRAME"}

// heapPackages are the packages the traced heap profile is split by.
var heapPackages = []string{"fb", "core", "cipher", "simnet", "client"}

// perLayer lists the per-layer metrics every workload reports with
// -trace 1; a layer a workload does not exercise reports 0.
func perLayer() []metricDef {
	m := []metricDef{
		{"server.do_wait_us_p50", "us"},
		{"server.do_wait_us_p99", "us"},
		{"core.translate_us_p50", "us"},
	}
	for _, e := range driverEntries {
		m = append(m, metricDef{"core.driver_" + e + "_ns", "ns"},
			metricDef{"core.driver_" + e + "_calls", "count"})
	}
	m = append(m,
		metricDef{"core.flush_us", "us"},
		metricDef{"core.flush_msgs", "count"},
		metricDef{"core.flush_kb", "KB"},
		metricDef{"core.queued_kb", "KB"},
		metricDef{"core.emit_ratio", "ratio"},
		metricDef{"compress.encode_ns_per_kb", "ns/KB"},
		metricDef{"compress.ratio", "ratio"},
		metricDef{"payloadcache.hit_ratio", "ratio"},
		metricDef{"payloadcache.saved_kb", "KB"},
		metricDef{"wire.encode_ns_per_msg", "ns"},
		metricDef{"wire.decode_ns_per_msg", "ns"},
		metricDef{"cipher.ns_per_kb", "ns/KB"},
	)
	for _, t := range applyTypes {
		m = append(m, metricDef{"client.apply_ns_" + t, "ns"})
	}
	m = append(m,
		metricDef{"shard.wakes", "count"},
		metricDef{"shard.runs", "count"},
		metricDef{"shard.max_depth", "count"},
		metricDef{"shard.wheel_lag_ns", "ns"},
		metricDef{"shard.task_wait_p99_us", "us"},
		metricDef{"shard.task_wait_overflow", "count"},
		metricDef{"shard.task_run_p99_us", "us"},
		metricDef{"shard.task_run_overflow", "count"},
		metricDef{"server.resync_kb", "KB"},
		metricDef{"server.attach_ms", "ms"},
	)
	for _, p := range heapPackages {
		m = append(m, metricDef{"heap." + p + "_mb_per_session", "MB"})
	}
	m = append(m,
		metricDef{"gc.pause_ms", "ms"},
		metricDef{"gc.count", "count"},
		metricDef{"trace.untraced_glass_p50_ms", "ms"},
		metricDef{"trace.traced_glass_p50_ms", "ms"},
		metricDef{"trace.overhead_ms", "ms"},
		metricDef{"trace.self_ms_p50", "ms"},
		metricDef{"trace.gap_ms_p50", "ms"},
	)
	return m
}

// config is one invocation's settings.
type config struct {
	Workload string
	Seed     int64
	Duration time.Duration
	Trace    bool
	Rand     *rand.Rand
}

// outcome is what a workload run returns.
type outcome struct {
	Tally   tally
	Correct bool
	E2E     map[string]float64
	Layers  map[string]float64
}

func newOutcome() *outcome {
	return &outcome{Correct: true, E2E: map[string]float64{}, Layers: map[string]float64{}}
}

// say prints one human-readable report line (never the last line).
func say(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: web, av or fleet")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.Parse()
	if err := logx.Setup("text", os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "thincperf: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		Workload: *workload,
		Seed:     *seed,
		Duration: time.Duration(*seconds) * time.Second,
		Trace:    *trace == 1,
		Rand:     rand.New(rand.NewSource(*seed)),
	}
	// A run must end within 180s even when the program under test
	// stalls and every operation waits out its deadline.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "thincperf: run exceeded 170s; aborting")
		os.Exit(1)
	})
	if cfg.Trace {
		// Sample the heap finely enough to split per-session memory by
		// package; set before the workload allocates anything.
		runtime.MemProfileRate = 16 << 10
	}
	var run func(config) (*outcome, error)
	switch cfg.Workload {
	case "web":
		run = runWeb
	case "av":
		run = runAV
	case "fleet":
		run = runFleet
	default:
		fmt.Fprintf(os.Stderr, "thincperf: unknown workload %q (want web, av or fleet)\n", cfg.Workload)
		os.Exit(2)
	}
	say("thincperf: workload=%s seed=%d seconds=%d trace=%v procs=%d",
		cfg.Workload, cfg.Seed, *seconds, cfg.Trace, runtime.GOMAXPROCS(0))
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "thincperf: %s: %v\n", cfg.Workload, err)
		os.Exit(1)
	}
	res, err := buildResult(cfg, out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "thincperf: %s: %v\n", cfg.Workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "thincperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// buildResult assembles the final JSON object, printing every metric
// with its unit first.
func buildResult(cfg config, out *outcome) (*resultOut, error) {
	defs, vals := endToEnd, out.E2E
	if cfg.Trace {
		defs, vals = perLayer(), out.Layers
	}
	res := &resultOut{
		Correct:   out.Correct,
		Attempted: out.Tally.attempted,
		Failed:    out.Tally.failed,
		Metrics:   map[string]metricOut{},
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.Name] = true
		v, ok := vals[d.Name]
		if !ok && !cfg.Trace {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	var extra []string
	for k := range vals {
		if !known[k] {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics outside the definition: %v", extra)
	}
	say("--- %s %s metrics ---", cfg.Workload, map[bool]string{false: "end-to-end", true: "per-layer"}[cfg.Trace])
	for _, d := range defs {
		say("%-34s %14.4f %s", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	say("%-34s %14.4f ratio (%d failed / %d attempted)", "failed_ratio",
		out.Tally.ratio(), res.Failed, res.Attempted)
	return res, nil
}
