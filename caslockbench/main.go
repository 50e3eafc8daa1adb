// Command caslockbench is the repository benchmark. One invocation runs
// one workload for a fixed time and prints, as the last line of its
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// telemetry off; with -trace 1 they are the per-layer ones, taken from
// spans the benchmark records around its calls into each layer plus the
// spans and counters the program emits into the registry it is handed.
// The line before it is a detail record: environment, sample counts,
// the tail percentile, and every failed check by workload, row, seed
// and reason. README.md explains the workloads and metrics.
//
// Usage (from the repository root):
//
//	bash caslockbench/run.sh --workload tablei32_paper --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the attack or the service sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"oracle_queries_per_op", "count"},
}

// perLayer are the traced run's metrics, grouped by layer. A layer a
// workload bypasses reports 0.
var perLayer = []metricDef{
	{"instance.build_ms", "ms"},
	{"crossover.calibrate_ms", "ms"},
	{"crossover.sat_share", "fraction"},
	{"enumerate.self_s", "s"},
	{"enumerate.dips_per_s", "1/s"},
	{"enumerate.patterns_per_s", "1/s"},
	{"kernel.ns_per_gate_word.64", "ns"},
	{"kernel.ns_per_gate_word.256", "ns"},
	{"kernel.ns_per_gate_word.512", "ns"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.gc_pause_ms", "ms"},
	{"decode.self_ms", "ms"},
	{"decode.candidates_per_op", "count"},
	{"algo1.self_ms", "ms"},
	{"algo2.self_ms", "ms"},
	{"algo2.calibrations_per_op", "count"},
	{"verify.self_ms", "ms"},
	{"verify.candidates_per_op", "count"},
	{"verify.oracle_queries_per_op", "count"},
	{"oracle.calls_per_op", "count"},
	{"oracle.queries_per_op", "count"},
	{"oracle.ns_per_query", "ns"},
	{"engine.encode_ms", "ms"},
	{"engine.enumerate_s", "s"},
	{"engine.distinguish_ms", "ms"},
	{"engine.blocking_pushed_per_op", "count"},
	{"engine.distinguish_unknown", "count"},
	{"sat.propagations_per_s", "1/s"},
	{"sat.conflicts_per_dip", "count"},
	{"sat.solve_calls_per_op", "count"},
	{"prove.ms_per_op", "ms"},
	{"service.submit_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.rejected_share", "fraction"},
	{"service.cache_hit_share", "fraction"},
	{"journal.records_per_job", "count"},
	{"journal.append_errors", "count"},
	{"service.result_not_ready_share", "fraction"},
	{"service.done_to_result_ms", "ms"},
	{"service.stream_resume_share", "fraction"},
	{"trace.overhead_s", "s"},
	{"trace.accounted_share", "fraction"},
}

// accountedTolerance is the accounting check on the traced run: the
// layers' self times along the blocking path must cover at least this
// share of op latency; the rest is benchmark glue and the attack's
// un-spanned frames.
const accountedTolerance = 0.95

// workloads lists every workload by name; README.md says why each
// exists. tablei32_indep and service_journal are not in BENCHMARK.json:
// the first fails on some rows by design (the open decode defect), the
// second's fsync-bound timings spread too widely on a shared disk.
var workloads = map[string]func() workload{
	"tablei32_paper": func() workload {
		return &attackWorkload{paper: true, deadline: 60 * time.Second,
			tailPct: 98, batch: rowsBatch(tableI32)}
	},
	"tablei32_indep": func() workload {
		return &attackWorkload{paper: false, deadline: 10 * time.Second,
			tailPct: 90, batch: rowsBatch(tableI32)}
	},
	"tablei64_c2670": func() workload {
		return &attackWorkload{paper: true, deadline: 120 * time.Second,
			tailPct: 100, batch: rowsBatch(tableI64c2670)}
	},
	"satpath_n12": func() workload {
		return &attackWorkload{paper: true, satWidth: 12, deadline: 60 * time.Second,
			tailPct: 90, batch: satPathBatch}
	},
	"service_mixed": func() workload { return &serviceWorkload{clients: runtime.NumCPU()} },
	"service_journal": func() workload {
		return &serviceWorkload{clients: runtime.NumCPU(), journal: true}
	},
}

// workload runs one measurement and fills in r.
type workload interface {
	measure(r *run) error
}

// failure is one failed check.
type failure struct {
	Workload string `json:"workload"`
	Row      string `json:"row"`
	Seed     int64  `json:"seed"`
	Reason   string `json:"reason"`
}

// run is one invocation's configuration and measurements.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	flip     bool // self-test: invert one key bit before each proof

	setup       []float64            // s, one per set-up
	walls       []float64            // s, untraced batches
	tracedWalls []float64            // s, traced batches
	latencies   []float64            // ms, untraced ops
	rowLatency  map[string][]float64 // ms, untraced ops by row (attack workloads)
	queries     []float64            // oracle queries of each successful untraced op
	ops         int                  // untraced ops completed
	attempted   int
	failures    []failure
	wrong       bool
	tailPct     float64

	rec       *recorder
	tracedOps int
	alloc     uint64 // bytes allocated during traced batches
	gcPause   uint64 // ns of GC pause during traced batches
	layers    map[string]float64
}

// fail records a failed check; wrong marks an incorrect program output
// (as opposed to an error or an expired deadline).
func (r *run) fail(row string, seed int64, reason string, wrong bool) {
	r.failures = append(r.failures, failure{r.workload, row, seed, reason})
	r.wrong = r.wrong || wrong
}

// timed runs one batch from a collected heap (the 64-bit row's dense DIP
// set alone is 512 MiB) and records its wall time, and in a traced batch
// its allocations and GC pauses.
func (r *run) timed(traced bool, batch func()) {
	runtime.GC()
	var before, after runtime.MemStats
	if traced {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	batch()
	wall := time.Since(start).Seconds()
	if !traced {
		r.walls = append(r.walls, wall)
		return
	}
	runtime.ReadMemStats(&after)
	r.alloc += after.TotalAlloc - before.TotalAlloc
	r.gcPause += after.PauseTotalNs - before.PauseTotalNs
	r.tracedWalls = append(r.tracedWalls, wall)
}

// continueAfter reports whether another batch fits in the time budget:
// batches stop once the next one, at the median batch time so far, would
// overrun. A traced run needs at least one untraced and one traced batch.
func (r *run) continueAfter(b int) bool {
	if r.trace && b < 1 {
		return true
	}
	all := append(append([]float64(nil), r.walls...), r.tracedWalls...)
	return sum(all)+median(all) <= r.seconds
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 25, "measurement time budget")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "caslockbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	r := &run{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, failures: []failure{}}
	if r.trace {
		r.rec = newRecorder()
	}
	if err := mk().measure(r); err != nil {
		fmt.Fprintf(os.Stderr, "caslockbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	detail, result := r.report()
	os.Stdout.Write(append(detail, '\n'))
	os.Stdout.Write(append(result, '\n'))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// p50 is the median op latency. An attack workload's ops come from a
// fixed mix of rows whose latencies sit in separate clusters (5 ms to
// 65 ms on Table I's 32-bit rows), and with an even row count the pooled
// median falls in the gap between two clusters, where it swings with
// their extremes. There the median is taken across rows of each row's
// median, which always lies inside a row's own distribution.
func (r *run) p50() float64 {
	if len(r.rowLatency) < 2 {
		return median(r.latencies)
	}
	var rows []float64
	for _, ms := range r.rowLatency {
		rows = append(rows, median(ms))
	}
	return median(rows)
}

// report renders the detail record and the result line.
func (r *run) report() (detail, result []byte) {
	metrics := make(map[string]metricValue)
	tailMS, beyond := tail(r.latencies, r.tailPct)
	if r.trace {
		for _, d := range perLayer {
			metrics[d.name] = metricValue{r.layers[d.name], d.unit}
		}
	} else {
		e2e := map[string]float64{
			"setup_s":               median(r.setup),
			"wall_s":                median(r.walls),
			"ops_per_s":             float64(r.ops) / sum(r.walls),
			"op_p50_ms":             r.p50(),
			"op_tail_ms":            tailMS,
			"peak_rss_mb":           peakRSSMB(),
			"oracle_queries_per_op": median(r.queries),
		}
		for _, d := range endToEnd {
			metrics[d.name] = metricValue{e2e[d.name], d.unit}
		}
	}
	rowP50 := make(map[string]float64)
	for row, ms := range r.rowLatency {
		rowP50[row] = median(ms)
	}
	failShare := 0.0
	if r.attempted > 0 {
		failShare = float64(len(r.failures)) / float64(r.attempted)
	}
	detail, _ = json.Marshal(map[string]any{"detail": map[string]any{
		"workload":       r.workload,
		"seed":           r.seed,
		"seconds":        r.seconds,
		"trace":          r.trace,
		"env":            environment(),
		"setups":         len(r.setup),
		"batch_walls_s":  r.walls,
		"traced_batches": len(r.tracedWalls),
		"ops":            r.ops,
		"traced_ops":     r.tracedOps,
		"tail_pct":       r.tailPct,
		"row_p50_ms":     rowP50,
		"tail_beyond":    beyond,
		"fail_share":     failShare,
		"failures":       r.failures,
	}})
	result, _ = json.Marshal(map[string]any{
		"correct":   !r.wrong,
		"attempted": r.attempted,
		"failed":    len(r.failures),
		"metrics":   metrics,
	})
	return detail, result
}

// environment records what a result was measured on.
func environment() map[string]any {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" {
					commit = s.Value
				}
			}
		}
	}
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit,
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
