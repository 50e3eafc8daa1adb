package main

import (
	"sort"
	"strconv"
	"time"

	"repro/internal/oracle"
	"repro/internal/telemetry"
)

// This file is the benchmark's tracing: spans the benchmark records
// around its calls into each layer's public functions (op, core.Run,
// prove, every oracle call, instance builds), merged with
// the spans the program already emits into the telemetry registry it is
// handed. Nothing is added inside the program. A nil *recorder is the
// untraced state: every method is a no-op.

// span is one closed interval on the benchmark's clock (nanoseconds
// since the recorder's epoch).
type span struct {
	name       string
	start, end int64
	patterns   uint64            // oracle spans: patterns evaluated
	args       map[string]string // program spans: the registry's args
}

type recorder struct {
	epoch time.Time
	spans []span
	// aside holds program spans that run off the blocking path (the
	// simulation extractor's shard workers); they are read for their
	// counts but take no part in the self-time partition.
	aside []span
	// ctr sums the program's counters over every registry absorbed.
	ctr map[string]float64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), ctr: make(map[string]float64)}
}

// counters folds a registry's counters into the running sums.
func (r *recorder) counters(reg *telemetry.Registry) {
	if r == nil {
		return
	}
	for name, v := range reg.Snapshot().Counters {
		r.ctr[name] += float64(v)
	}
}

// now reads the recorder clock (0 when untraced).
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// add closes a span that began at start.
func (r *recorder) add(name string, start int64, patterns uint64) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{name: name, start: start, end: r.now(), patterns: patterns})
}

// registry returns a fresh telemetry registry together with its epoch
// on the recorder clock, so the program's span records can be placed
// beside the benchmark's own. Nil when untraced.
func (r *recorder) registry() (*telemetry.Registry, int64) {
	if r == nil {
		return nil, 0
	}
	reg := telemetry.New()
	// The registry's epoch is private; a span opened and read back pins
	// it to within the few nanoseconds between the two clock reads.
	sp := reg.StartSpan("bench_sync")
	t := r.now()
	sp.End()
	return reg, t - int64(reg.SpanRecords()[0].Start)
}

// absorb copies a registry's ended spans onto the recorder clock.
// Lanes 1..EngineLane-1 are the simulation extractor's shard workers,
// which run beside the blocking attack goroutine.
func (r *recorder) absorb(reg *telemetry.Registry, epoch int64) {
	if r == nil {
		return
	}
	for _, rec := range reg.SpanRecords() {
		if rec.Name == "bench_sync" {
			continue
		}
		s := span{name: rec.Name, start: epoch + int64(rec.Start), args: rec.Args}
		s.end = s.start + int64(rec.Dur)
		if rec.Lane > 0 && rec.Lane < telemetry.EngineLane {
			r.aside = append(r.aside, s)
			continue
		}
		r.spans = append(r.spans, s)
	}
}

// tracedOracle times every oracle call as a span. It implements
// oracle.BatchOracle so the attack keeps its batched verification path.
type tracedOracle struct {
	inner oracle.BatchOracle
	rec   *recorder
}

func (o *tracedOracle) NumInputs() int  { return o.inner.NumInputs() }
func (o *tracedOracle) NumOutputs() int { return o.inner.NumOutputs() }

func (o *tracedOracle) Query(in []bool) ([]bool, error) {
	t := o.rec.now()
	out, err := o.inner.Query(in)
	o.rec.add("oracle", t, 1)
	return out, err
}

func (o *tracedOracle) Query64(in []uint64) ([]uint64, error) {
	t := o.rec.now()
	out, err := o.inner.Query64(in)
	o.rec.add("oracle", t, 64)
	return out, err
}

func (o *tracedOracle) EvalMany(ins [][]uint64) ([][]uint64, error) {
	t := o.rec.now()
	out, err := o.inner.EvalMany(ins)
	o.rec.add("oracle", t, 64*uint64(len(ins)))
	return out, err
}

// layerOf maps a span name to the layer its self time is charged to.
// Glue spans (the benchmark's op wrapper, core.Run's attack and
// hypothesis frames) map to "" and count as unattributed.
func layerOf(name string) string {
	switch name {
	case "calibrate":
		return "crossover"
	case "enumerate", "extract", "miter":
		return "enumerate"
	case "decode", "algo1", "algo2", "verify", "oracle", "prove", "instance":
		return name
	case "engine_encode", "engine_compact", "portfolio_encode":
		return "engine.encode"
	case "engine_enumerate":
		return "engine.enumerate"
	case "engine_distinguish":
		return "engine.distinguish"
	case "engine_session", "engine_witnesses", "engine_sensitize":
		return "engine.other"
	}
	return ""
}

// node is a span placed in the containment tree.
type node struct {
	span
	parent int // index into the node slice, -1 for a root
	self   int64
	phase  string // innermost enclosing attack phase (for oracle spans)
}

// build nests the recorded spans by time containment: a span that starts
// inside another is its descendant (calls are synchronous along the
// blocking path). A child's interval is clipped to its parent's, which
// absorbs the nanoseconds of skew between the benchmark's and the
// registry's clock reads. Self time is a span's duration minus the union
// of its children's clipped intervals.
func (r *recorder) build() []node {
	if r == nil {
		return nil
	}
	nodes := make([]node, len(r.spans))
	for i, s := range r.spans {
		nodes[i] = node{span: s, parent: -1}
	}
	sort.SliceStable(nodes, func(i, j int) bool {
		if nodes[i].start != nodes[j].start {
			return nodes[i].start < nodes[j].start
		}
		return nodes[i].end > nodes[j].end
	})
	var stack []int
	for i := range nodes {
		for len(stack) > 0 && nodes[stack[len(stack)-1]].end <= nodes[i].start {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			nodes[i].parent = p
			if nodes[i].end > nodes[p].end {
				nodes[i].end = nodes[p].end
			}
		}
		stack = append(stack, i)
	}
	covered := make([]int64, len(nodes))
	lastEnd := make([]int64, len(nodes))
	for i := range nodes {
		lastEnd[i] = nodes[i].start
	}
	for i := range nodes {
		p := nodes[i].parent
		if p < 0 {
			continue
		}
		// Children arrive in start order, so the union of their
		// intervals grows monotonically from the last covered end.
		from := nodes[i].start
		if from < lastEnd[p] {
			from = lastEnd[p]
		}
		if nodes[i].end > from {
			covered[p] += nodes[i].end - from
			lastEnd[p] = nodes[i].end
		}
	}
	for i := range nodes {
		nodes[i].self = nodes[i].end - nodes[i].start - covered[i]
		switch nodes[i].name {
		case "calibrate", "enumerate", "decode", "algo1", "algo2", "verify":
			nodes[i].phase = nodes[i].name
		default:
			if p := nodes[i].parent; p >= 0 {
				nodes[i].phase = nodes[p].phase
			}
		}
	}
	return nodes
}

// argInt reads an integer span argument (0 when absent).
func argInt(s span, key string) float64 {
	v, err := strconv.ParseFloat(s.args[key], 64)
	if err != nil {
		return 0
	}
	return v
}
