package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/lock"
	"repro/internal/miter"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/synth"
)

// instance is one freshly generated locked design and its ground truth.
type instance struct {
	label   string // row, e.g. "c432/A-O-2A-O-2A-O-2A-O-2A-O-A"
	seed    int64
	host    *netlist.Circuit
	locked  *netlist.Circuit
	orc     *oracle.Sim
	dips    uint64 // expected Result.TotalDIPs (the miter-visible |I_l|); 0 = unchecked
	aligned uint64 // expected Result.AlignedDIPs (Lemma 2); 0 = unchecked
}

// row is one instance shape: host profile, cascade chain and, for the
// Table I rows, the DIP count the paper-regime instance must produce.
type row struct {
	profile string
	chain   string
	dips    uint64
}

// tableI32 is Table I's 32-bit half with the DIP counts its chains
// produce (experiments.TableI32 documents the two printed-count typos).
var tableI32 = []row{
	{"c432", "A-O-2A-O-2A-O-2A-O-2A-O-A", 18725},
	{"c880", "A-O-2A-O-2A-O-2A-O-2A-O-A", 18725},
	{"c1908", "2A-O-5A-O-2A-2O-2A", 12809},
	{"c2670", "O-6A-O-5A-O-A", 16643},
	{"c3540", "2A-O-5A-O-2A-2O-2A", 12809},
	{"c5315", "14A-O", 32767},
	{"c6288", "3A-2O-3A-2O-3A-O-A", 17969},
	{"c7552", "3A-2O-3A-2O-3A-O-A", 17969},
}

// tableI64c2670 is the 64-bit row c2670 2A-O-2(4A-O)-2(2A-O)-12A.
var tableI64c2670 = []row{{"c2670", "2A-O-2(4A-O)-2(2A-O)-12A", 598281}}

// chains12 are the 12-input cascades of the SAT-path and service
// workloads: both terminators, one to five OR gates, 1025 to 2341 DIPs.
// Fixed shapes keep each batch's work comparable across seeds; hosts,
// key gates and keys still come fresh from the seed.
var chains12 = []string{
	"A-O-2A-O-2A-O-2A-O",
	"2A-O-5A-O-2A",
	"O-6A-O-3A",
	"3A-2O-3A-2O-A",
	"9A-O-A",
	"A-O-A-O-A-O-A-O-A-O-A",
}

// attackWorkload is a workload whose op is one core.Run attack plus the
// miter.ProveUnlockedHashed proof of its key — what caslock-attack does
// by default.
type attackWorkload struct {
	paper bool // aligned key-gate polarities (the regime Table I prints)
	// satWidth is passed as core.Options.SATWidthLimit; 0 keeps the
	// calibrated crossover.
	satWidth int
	// deadline bounds each op; expiry is a failure whose latency is the
	// deadline.
	deadline time.Duration
	// tailPct is the op_tail_ms percentile, the highest that leaves at
	// least ten samples beyond it at the workload's usual op count.
	tailPct float64
	// batch builds the fixed set of instances one batch attacks.
	batch func(w *attackWorkload, rec *recorder, seed int64) ([]*instance, error)
}

// rowsBatch attacks every row once, all rows sharing the batch seed (as
// experiments.RunTableIRows does).
func rowsBatch(rows []row) func(*attackWorkload, *recorder, int64) ([]*instance, error) {
	return func(w *attackWorkload, rec *recorder, seed int64) ([]*instance, error) {
		out := make([]*instance, 0, len(rows))
		for _, r := range rows {
			prof, err := synth.ProfileByName(r.profile)
			if err != nil {
				return nil, err
			}
			inst, err := newInstance(rec, synth.FromProfile(prof, seed), r.chain, w.paper, seed)
			if err != nil {
				return nil, err
			}
			switch {
			case !w.paper:
				// Table I's counts hold for aligned polarities. With
				// independent ones the successful extraction is not always
				// the Lemma-1 one this count describes (on the c1908 chain
				// it reported 13312-16384 against 25618), so the key proof
				// is the check.
				inst.dips = 0
			case inst.dips != r.dips:
				return nil, fmt.Errorf("row %s: BDD counts %d DIPs, the table says %d", inst.label, inst.dips, r.dips)
			}
			out = append(out, inst)
		}
		return out, nil
	}
}

// satPathBatch attacks one instance per 12-input chain on c432-profile
// hosts, with Lemma 2's aligned count checked as well. The SAT path's
// cost grows steeply with the host: 0.05-0.2 s per attack on c432,
// 0.2-1 s on c880, and past 20 s for some on c1908. The smallest host
// gives a run the most attacks, which it needs because hosts drawn from
// different seeds vary several-fold in difficulty.
func satPathBatch(w *attackWorkload, rec *recorder, seed int64) ([]*instance, error) {
	prof, err := synth.ProfileByName("c432")
	if err != nil {
		return nil, err
	}
	out := make([]*instance, 0, len(chains12))
	for i, c := range chains12 {
		s := seed + int64(i)*17
		inst, err := newInstance(rec, synth.FromProfile(prof, s), c, w.paper, s)
		if err != nil {
			return nil, err
		}
		inst.aligned = lemma2(lock.MustParseChain(c))
		out = append(out, inst)
	}
	return out, nil
}

// lemma2 is the aligned class size |A| the attack must report: Lemma 2's
// closed form for an AND-terminated chain, and for an OR-terminated one
// (the Case 2 hypothesis) the closed form of its AND/OR dual.
func lemma2(chain lock.ChainConfig) uint64 {
	if chain.Terminator() == lock.ChainAnd {
		return core.MaxDIPs(chain)
	}
	dual := make(lock.ChainConfig, len(chain))
	for i, g := range chain {
		dual[i] = lock.ChainAnd
		if g == lock.ChainAnd {
			dual[i] = lock.ChainOr
		}
	}
	return core.MaxDIPs(dual)
}

// newInstance generates a host, locks it with CAS-Lock exactly as
// experiments.RunTableIRow does for the same seed, and derives the
// expected DIP count symbolically (experiments.BDDDIPCount), an engine
// independent of both extractors.
func newInstance(rec *recorder, cfg synth.Config, chainStr string, paper bool, seed int64) (*instance, error) {
	chain, err := lock.ParseChain(chainStr)
	if err != nil {
		return nil, err
	}
	t := rec.now()
	host, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	opts := lock.CASOptions{Chain: chain, Seed: seed + 1}
	if paper {
		kg := keyGates(chain.NumInputs(), seed+2)
		opts.KeyGates1 = kg
		opts.KeyGates2 = append([]netlist.GateType(nil), kg...)
	}
	locked, cas, err := lock.ApplyCAS(host, opts)
	if err != nil {
		return nil, err
	}
	orc, err := oracle.NewSim(host)
	if err != nil {
		return nil, err
	}
	rec.add("instance", t, 0)
	k1A, k2A, k1B, k2B := experiments.BDDLemma1Assignment(chain)
	count, err := experiments.BDDDIPCount(chain, cas.KeyGates1, cas.KeyGates2, k1A, k2A, k1B, k2B)
	if err != nil {
		return nil, err
	}
	return &instance{
		label:  cfg.Name + "/" + chainStr,
		seed:   seed,
		host:   host,
		locked: locked.Circuit,
		orc:    orc,
		dips:   count.Uint64(),
	}, nil
}

// keyGates draws XOR/XNOR key gates with the same xorshift sequence as
// the experiments package, so an instance matches `tablei` at the same
// seed.
func keyGates(n int, seed int64) []netlist.GateType {
	out := make([]netlist.GateType, n)
	state := uint64(seed)*0x9e3779b97f4a7c15 + 1
	for i := range out {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		if state&1 == 0 {
			out[i] = netlist.Xor
		} else {
			out[i] = netlist.Xnor
		}
	}
	return out
}

// opOutcome is one op's measurement and verdict.
type opOutcome struct {
	latency time.Duration
	queries uint64 // Result.OracleQueries
	fail    string // "" on success
	wrong   bool   // the program returned an incorrect output
}

// attack runs one op on inst. With flip set the recovered key has one
// bit inverted before the proof — the self-test's planted defect.
func (w *attackWorkload) attack(inst *instance, rec *recorder, flip bool) opOutcome {
	ctx, cancel := context.WithTimeout(context.Background(), w.deadline)
	defer cancel()
	var orc oracle.Oracle = inst.orc
	if rec != nil {
		orc = &tracedOracle{inner: inst.orc, rec: rec}
	}
	reg, epoch := rec.registry()
	opStart := rec.now()
	start := time.Now()

	t := rec.now()
	res, err := core.Run(core.Options{
		Context:       ctx,
		Locked:        inst.locked,
		Oracle:        orc,
		Seed:          inst.seed + 3,
		Workers:       runtime.NumCPU(),
		SATWidthLimit: w.satWidth,
		Telemetry:     reg,
	})
	rec.add("core.Run", t, 0)
	var out opOutcome
	switch {
	case err != nil:
		out.fail = "attack: " + err.Error()
	case inst.dips != 0 && res.TotalDIPs != inst.dips:
		out.fail, out.wrong = fmt.Sprintf("DIP count %d, want %d", res.TotalDIPs, inst.dips), true
	case inst.aligned != 0 && res.AlignedDIPs != inst.aligned:
		out.fail, out.wrong = fmt.Sprintf("aligned DIP count %d, want Lemma 2's %d", res.AlignedDIPs, inst.aligned), true
	default:
		out.queries = res.OracleQueries
		key := res.Key
		if flip {
			key = append([]bool(nil), key...)
			key[0] = !key[0]
		}
		t := rec.now()
		ok, err := miter.ProveUnlockedHashed(inst.locked, key, inst.host)
		rec.add("prove", t, 0)
		switch {
		case err != nil:
			out.fail = "proof: " + err.Error()
		case !ok:
			out.fail, out.wrong = "key is not SAT-proven equivalent", true
		}
	}
	out.latency = time.Since(start)
	rec.add("op", opStart, 0)
	rec.absorb(reg, epoch)
	rec.counters(reg)
	if errors.Is(err, context.DeadlineExceeded) {
		out.fail = fmt.Sprintf("deadline %v expired", w.deadline)
		out.latency = w.deadline
	}
	return out
}

// batchSeed derives a batch's instance seed from the run seed, so every
// batch of every run attacks instances no earlier attack has seen (the
// crossover's process-wide probe memo never answers for free).
func batchSeed(seed int64, b int) int64 {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(b))).Int63n(1 << 40)
}

// setupReps is how many times a run builds its first batch to time
// set-up; setup_s is the median.
const setupReps = 5

// measure runs batches until the time budget is spent. Each batch is
// built fresh outside the timed region; in a traced run batches
// alternate untraced and traced, so the tracing overhead is measured
// on the same run.
func (w *attackWorkload) measure(r *run) error {
	r.tailPct = w.tailPct
	r.rowLatency = make(map[string][]float64)
	var insts []*instance
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		var err error
		if insts, err = w.batch(w, r.rec, batchSeed(r.seed, 0)); err != nil {
			return err
		}
		r.setup = append(r.setup, time.Since(t).Seconds())
	}
	for b := 0; ; b++ {
		if b > 0 {
			var err error
			if insts, err = w.batch(w, nil, batchSeed(r.seed, b)); err != nil {
				return err
			}
		}
		traced := r.trace && b%2 == 1
		var rec *recorder
		if traced {
			rec = r.rec
		}
		r.timed(traced, func() {
			for _, inst := range insts {
				o := w.attack(inst, rec, r.flip)
				r.attempted++
				if o.fail != "" {
					r.fail(inst.label, inst.seed, o.fail, o.wrong)
				}
				if traced {
					r.tracedOps++
					continue
				}
				r.ops++
				r.latencies = append(r.latencies, float64(o.latency)/1e6)
				r.rowLatency[inst.label] = append(r.rowLatency[inst.label], float64(o.latency)/1e6)
				if o.fail == "" {
					r.queries = append(r.queries, float64(o.queries))
				}
			}
		})
		if !r.continueAfter(b) {
			break
		}
	}
	if r.trace {
		r.layers = attackLayers(r, insts[0].locked)
	}
	return nil
}
