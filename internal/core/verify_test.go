package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/lock"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// callCounter counts oracle calls; it deliberately hides any batched
// interface of the oracle it wraps, so every call is a Query or Query64.
type callCounter struct {
	inner oracle.Oracle
	calls int
}

func (o *callCounter) NumInputs() int  { return o.inner.NumInputs() }
func (o *callCounter) NumOutputs() int { return o.inner.NumOutputs() }
func (o *callCounter) Query(in []bool) ([]bool, error) {
	o.calls++
	return o.inner.Query(in)
}
func (o *callCounter) Query64(in []uint64) ([]uint64, error) {
	o.calls++
	return o.inner.Query64(in)
}

// tableIRow builds Table I's c432 32-bit row (chain
// A-O-2A-O-2A-O-2A-O-2A-O-A) in the paper's aligned key-gate regime.
func tableIRow(t *testing.T, seed int64) (locked, host *netlist.Circuit, key []bool) {
	t.Helper()
	prof, err := synth.ProfileByName("c432")
	if err != nil {
		t.Fatal(err)
	}
	host, err = synth.Generate(synth.FromProfile(prof, seed))
	if err != nil {
		t.Fatal(err)
	}
	chain := lock.MustParseChain("A-O-2A-O-2A-O-2A-O-2A-O-A")
	rng := rand.New(rand.NewSource(seed))
	kg := make([]netlist.GateType, chain.NumInputs())
	for i := range kg {
		kg[i] = netlist.Xor
		if rng.Intn(2) == 1 {
			kg[i] = netlist.Xnor
		}
	}
	l, _, err := lock.ApplyCAS(host, lock.CASOptions{
		Chain: chain, Seed: seed + 1,
		KeyGates1: kg, KeyGates2: append([]netlist.GateType(nil), kg...),
	})
	if err != nil {
		t.Fatal(err)
	}
	return l.Circuit, host, l.Key
}

// TestProbeStageOracleCalls pins the probe stage's oracle economy: one
// probe set per verify, answered once, so the stage makes at most
// ⌈probes/64⌉ oracle calls however many candidates it adjudicates, and
// every copy of a candidate gets the same verdict.
func TestProbeStageOracleCalls(t *testing.T) {
	locked, host, correct := tableIRow(t, 11)
	layout, err := DiscoverLayout(locked)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := NewSimExtractor(locked, layout, 11)
	if err != nil {
		t.Fatal(err)
	}
	orc := &callCounter{inner: oracle.MustNewSim(host)}
	a := &attack{opts: Options{Locked: locked, Oracle: orc, MaxOnePoints: 1 << 27}, layout: layout, ext: ext,
		ctx: context.Background(), rng: rand.New(rand.NewSource(1))}
	dips, err := a.extractDIPs(1, 0) // the row is AND-terminated: Case 1
	if err != nil {
		t.Fatal(err)
	}
	st, err := a.decode(nil, dips)
	if err != nil {
		t.Fatal(err)
	}
	_, cands := a.candidateKeys(1, 0, st)
	if len(cands) == 0 {
		t.Fatal("decode produced no candidates")
	}
	sim, err := netlist.NewSimulator(locked)
	if err != nil {
		t.Fatal(err)
	}
	maxCalls := (len(a.probePatterns(st, probeBudget)) + 63) / 64
	for _, n := range []int{1, len(cands), 64} {
		// The correct key first, then the decoded candidates cycled.
		keys := [][]bool{correct}
		for i := 0; i < n; i++ {
			keys = append(keys, cands[i%len(cands)])
		}
		before := orc.calls
		alive, err := a.probeCandidates(sim, st, keys)
		if err != nil {
			t.Fatal(err)
		}
		if calls := orc.calls - before; calls > maxCalls {
			t.Errorf("%d candidates: probe stage made %d oracle calls, want at most %d", len(keys), calls, maxCalls)
		}
		if !alive[0] {
			t.Errorf("%d candidates: the correct key failed probing", len(keys))
		}
		for i := 1 + len(cands); i < len(keys); i++ {
			if alive[i] != alive[i-len(cands)] {
				t.Errorf("%d candidates: copies of candidate %d got different verdicts", len(keys), (i-1)%len(cands))
			}
		}
	}
}

// parentOracleQueries is Result.OracleQueries of TestAttackOracleQueries'
// instance before verification shared one probe set across candidates;
// batching may only lower it.
const parentOracleQueries = 18882

// TestAttackOracleQueries checks the attack's query accounting on a
// Table I row: Result.OracleQueries equals the registry's
// attack_oracle_queries_total and stays at or below the count from
// before probes were shared.
func TestAttackOracleQueries(t *testing.T) {
	locked, host, _ := tableIRow(t, 11)
	reg := telemetry.New()
	res, err := Run(Options{Locked: locked, Oracle: oracle.MustNewSim(host), Seed: 12, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("attack_oracle_queries_total").Value(); got != res.OracleQueries {
		t.Errorf("attack_oracle_queries_total = %d, Result.OracleQueries = %d", got, res.OracleQueries)
	}
	if res.OracleQueries > parentOracleQueries {
		t.Errorf("attack spent %d oracle queries, more than the %d before shared probing", res.OracleQueries, parentOracleQueries)
	}
	t.Logf("oracle queries: %d (unshared probing: %d)", res.OracleQueries, parentOracleQueries)
}
