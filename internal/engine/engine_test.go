package engine

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/lock"
	"repro/internal/miter"
	"repro/internal/netlist"
	"repro/internal/oracle"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

func lockedInstance(t *testing.T, inputs int, chain string, seed int64) *netlist.Circuit {
	t.Helper()
	h, err := synth.Generate(synth.Config{Name: "h", Inputs: inputs, Outputs: 3, Gates: 50, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	locked, _, err := lock.ApplyCAS(h, lock.CASOptions{Chain: lock.MustParseChain(chain), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return locked.Circuit
}

func randomKey(rng *rand.Rand, n int) []bool {
	k := make([]bool, n)
	for i := range k {
		k[i] = rng.Intn(2) == 1
	}
	return k
}

// bruteDIPs enumerates the disagreement patterns over all primary inputs
// by direct evaluation — the ground truth EnumerateDIPs must match when
// the block covers every input.
func bruteDIPs(t *testing.T, c *netlist.Circuit, keyA, keyB []bool) map[uint64]bool {
	t.Helper()
	nIn := c.NumInputs()
	out := make(map[uint64]bool)
	in := make([]bool, nIn)
	for pat := uint64(0); pat < uint64(1)<<uint(nIn); pat++ {
		for i := range in {
			in[i] = pat&(1<<uint(i)) != 0
		}
		a, err := c.Eval(in, keyA)
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.Eval(in, keyB)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				out[pat] = true
				break
			}
		}
	}
	return out
}

func allInputs(c *netlist.Circuit) []int {
	pos := make([]int, c.NumInputs())
	for i := range pos {
		pos[i] = i
	}
	return pos
}

// cubePoints calls f on every pattern of the cube (pat, free): the 2^|free|
// patterns that agree with pat outside free.
func cubePoints(pat, free uint64, f func(p uint64)) {
	for s := free; ; s = (s - 1) & free {
		f(pat&^free | s)
		if s == 0 {
			return
		}
	}
}

// collectCubes runs an enumeration and returns the union of its cubes.
// A model inside an earlier cube — a repeated model included — means
// the blocking clauses failed to exclude a reported cube, and fails the
// test.
func collectCubes(t *testing.T, enumerate func(visit func(pat, free uint64) bool) error) map[uint64]bool {
	t.Helper()
	got := make(map[uint64]bool)
	err := enumerate(func(pat, free uint64) bool {
		if got[pat] {
			t.Fatalf("model %b lies in an already-reported cube", pat)
		}
		cubePoints(pat, free, func(p uint64) { got[p] = true })
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func collect(t *testing.T, e *Engine, keyA, keyB []bool) map[uint64]bool {
	t.Helper()
	return collectCubes(t, func(visit func(pat, free uint64) bool) error {
		return e.EnumerateDIPs(keyA, keyB, visit)
	})
}

// TestEnumerateMatchesBruteForce checks assumption-driven enumeration on
// the persistent miter against exhaustive evaluation, across several
// key pairs ON THE SAME ENGINE — so every session after the first runs
// on a solver carrying the previous sessions' learned clauses and
// retired blocking scopes, which is exactly the state the refactor must
// prove harmless.
func TestEnumerateMatchesBruteForce(t *testing.T) {
	locked := lockedInstance(t, 6, "2A-O-A", 7)
	eng, err := New(locked, allInputs(locked))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	nk := locked.NumKeys()
	for trial := 0; trial < 12; trial++ {
		keyA, keyB := randomKey(rng, nk), randomKey(rng, nk)
		want := bruteDIPs(t, locked, keyA, keyB)
		got := collect(t, eng, keyA, keyB)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d DIPs, want %d", trial, len(got), len(want))
		}
		for p := range want {
			if !got[p] {
				t.Fatalf("trial %d: missing DIP %b", trial, p)
			}
		}
	}
	if eng.Stats().BlockingRetired != eng.Stats().BlockingPushed {
		t.Fatal("sessions left an open blocking scope")
	}
}

// TestScopesIndependent re-runs the same assignment after other
// assignments have been enumerated in between: the result must be
// identical, proving retired scopes do not leak into later sessions.
func TestScopesIndependent(t *testing.T) {
	locked := lockedInstance(t, 6, "A-O-2A", 3)
	eng, err := New(locked, allInputs(locked))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	nk := locked.NumKeys()
	keyA, keyB := randomKey(rng, nk), randomKey(rng, nk)
	first := collect(t, eng, keyA, keyB)
	for i := 0; i < 3; i++ {
		collect(t, eng, randomKey(rng, nk), randomKey(rng, nk))
	}
	again := collect(t, eng, keyA, keyB)
	if len(first) != len(again) {
		t.Fatalf("re-enumeration size %d, want %d", len(again), len(first))
	}
	for p := range first {
		if !again[p] {
			t.Fatalf("re-enumeration lost pattern %b", p)
		}
	}
}

// TestDistinguishAgreesWithProver compares the persistent-miter
// distinguisher with the standalone SAT equivalence prover on random key
// pairs, and validates every witness by direct evaluation.
func TestDistinguishAgreesWithProver(t *testing.T) {
	locked := lockedInstance(t, 7, "2A-O-2A", 11)
	eng, err := New(locked, allInputs(locked))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	nk := locked.NumKeys()
	sawEquivalent, sawWitness := false, false
	check := func(keyA, keyB []bool) {
		t.Helper()
		w, eq, err := eng.Distinguish(keyA, keyB, 0)
		if err != nil {
			t.Fatal(err)
		}
		actA, err := oracle.Activate(locked, keyA)
		if err != nil {
			t.Fatal(err)
		}
		actB, err := oracle.Activate(locked, keyB)
		if err != nil {
			t.Fatal(err)
		}
		wantEq, _, err := miter.ProveEquivalent(actA, actB)
		if err != nil {
			t.Fatal(err)
		}
		if eq != wantEq {
			t.Fatalf("Distinguish says equivalent=%v, prover says %v", eq, wantEq)
		}
		if eq {
			sawEquivalent = true
			return
		}
		sawWitness = true
		a, err := locked.Eval(w, keyA)
		if err != nil {
			t.Fatal(err)
		}
		b, err := locked.Eval(w, keyB)
		if err != nil {
			t.Fatal(err)
		}
		differs := false
		for i := range a {
			if a[i] != b[i] {
				differs = true
			}
		}
		if !differs {
			t.Fatal("witness does not distinguish the keys")
		}
	}
	for trial := 0; trial < 10; trial++ {
		keyA := randomKey(rng, nk)
		check(keyA, keyA) // identical keys: always equivalent
		check(keyA, randomKey(rng, nk))
	}
	if !sawEquivalent || !sawWitness {
		t.Fatalf("coverage hole: equivalent=%v witness=%v", sawEquivalent, sawWitness)
	}
}

// TestPhaseAttribution checks per-phase stats sum to the solver totals
// and the engine_* counter families land in an attached registry.
func TestPhaseAttribution(t *testing.T) {
	locked := lockedInstance(t, 6, "2A-O-A", 7)
	eng, err := New(locked, allInputs(locked))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	eng.SetTelemetry(reg)
	rng := rand.New(rand.NewSource(23))
	nk := locked.NumKeys()
	eng.SetPhase("enumerate")
	collect(t, eng, randomKey(rng, nk), randomKey(rng, nk))
	eng.SetPhase("verify")
	if _, _, err := eng.Distinguish(randomKey(rng, nk), randomKey(rng, nk), 0); err != nil {
		t.Fatal(err)
	}
	ps := eng.PhaseStats()
	if len(ps) != 2 {
		t.Fatalf("phases recorded: %v", ps)
	}
	var solveSum uint64
	for _, st := range ps {
		if st.SolveCalls == 0 {
			t.Fatalf("a phase recorded no solve calls: %+v", ps)
		}
		solveSum += st.SolveCalls
	}
	if total := eng.Stats().SolveCalls; solveSum != total {
		t.Fatalf("phase solve calls sum to %d, solver says %d", solveSum, total)
	}
	snap := reg.Snapshot()
	if snap.Counters["engine_assumption_solves_total"] != eng.Stats().SolveCalls {
		t.Fatalf("engine_assumption_solves_total = %d, want %d",
			snap.Counters["engine_assumption_solves_total"], eng.Stats().SolveCalls)
	}
	if snap.Counters["engine_encodings_total"] != 1 {
		t.Fatalf("engine_encodings_total = %d, want 1", snap.Counters["engine_encodings_total"])
	}
	if snap.Counters["engine_encodings_avoided_total"] == 0 {
		t.Fatal("engine_encodings_avoided_total never incremented across sessions")
	}
	if snap.Counters["sat_solve_calls_total"] != eng.Stats().SolveCalls {
		t.Fatal("sat_* continuity broken: solve calls not folded in")
	}
	found := false
	for _, sp := range snap.Spans {
		if sp.Name == "engine_enumerate" && sp.Lane == telemetry.EngineLane {
			found = true
		}
	}
	if !found {
		t.Fatal("no engine_enumerate span on the engine lane")
	}
}

// TestEnumerateCancelled checks an expired context surfaces immediately
// with the context's error.
func TestEnumerateCancelled(t *testing.T) {
	locked := lockedInstance(t, 6, "2A-O-A", 7)
	eng, err := New(locked, allInputs(locked))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng.SetContext(ctx)
	rng := rand.New(rand.NewSource(31))
	nk := locked.NumKeys()
	err = eng.EnumerateDIPs(randomKey(rng, nk), randomKey(rng, nk), func(uint64, uint64) bool { return true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestCompactBytesTrigger covers the bytes-based Simplify trigger: the
// default threshold leaves a small formula's retired scopes alone, a
// tiny override compacts after the first retired blocking clause, and
// the clause-DB gauges track the observed database size.
func TestCompactBytesTrigger(t *testing.T) {
	locked := lockedInstance(t, 6, "2A-O-A", 7)
	eng, err := New(locked, allInputs(locked))
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	eng.SetTelemetry(tel)
	rng := rand.New(rand.NewSource(9))
	nk := locked.NumKeys()
	run := func() {
		t.Helper()
		for trial := 0; trial < 4; trial++ {
			collect(t, eng, randomKey(rng, nk), randomKey(rng, nk))
		}
	}

	run()
	if got := tel.Counter("engine_simplify_runs_total").Value(); got != 0 {
		t.Fatalf("default threshold compacted a tiny formula (%d runs)", got)
	}
	db := tel.Gauge("sat_clause_db_bytes").Value()
	hwm := tel.Gauge("sat_clause_db_bytes_hwm").Value()
	if db <= 0 || hwm < db {
		t.Fatalf("clause-DB gauges incoherent: current=%d hwm=%d", db, hwm)
	}

	eng.SetCompactBytes(1)
	run()
	if got := tel.Counter("engine_simplify_runs_total").Value(); got == 0 {
		t.Fatal("1-byte threshold never triggered Simplify")
	}

	// Correctness after forced compaction: enumeration still matches
	// brute force on a fresh assignment.
	keyA, keyB := randomKey(rng, nk), randomKey(rng, nk)
	want := bruteDIPs(t, locked, keyA, keyB)
	got := collect(t, eng, keyA, keyB)
	if len(got) != len(want) {
		t.Fatalf("post-compaction enumeration found %d DIPs, want %d", len(got), len(want))
	}

	eng.SetCompactBytes(0) // ignored
	if eng.compactBytes != 1 {
		t.Fatal("SetCompactBytes(0) was not ignored")
	}
}
