package engine

import (
	"math/rand"
	"testing"

	"repro/internal/lock"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// satpathChains are the 12-input cascades of the benchmark's SAT-path
// workload: both terminators, one to five OR gates.
var satpathChains = []string{
	"A-O-2A-O-2A-O-2A-O",
	"2A-O-5A-O-2A",
	"O-6A-O-3A",
	"3A-2O-3A-2O-A",
	"9A-O-A",
	"A-O-A-O-A-O-A-O-A-O-A",
}

// satpathLocked locks a c432-profile host with chain; aligned selects
// the paper's regime (identical key-gate types in both CAS blocks),
// otherwise both blocks draw their own. The block inputs are primary
// inputs 0..n-1 in chain order.
func satpathLocked(t *testing.T, chain string, aligned bool, seed int64) (*netlist.Circuit, []int) {
	t.Helper()
	prof, err := synth.ProfileByName("c432")
	if err != nil {
		t.Fatal(err)
	}
	host, err := synth.Generate(synth.FromProfile(prof, seed))
	if err != nil {
		t.Fatal(err)
	}
	ch := lock.MustParseChain(chain)
	opts := lock.CASOptions{Chain: ch, Seed: seed + 1}
	if aligned {
		rng := rand.New(rand.NewSource(seed))
		kg := make([]netlist.GateType, ch.NumInputs())
		for i := range kg {
			kg[i] = netlist.Xor
			if rng.Intn(2) == 1 {
				kg[i] = netlist.Xnor
			}
		}
		opts.KeyGates1, opts.KeyGates2 = kg, append([]netlist.GateType(nil), kg...)
	}
	locked, _, err := lock.ApplyCAS(host, opts)
	if err != nil {
		t.Fatal(err)
	}
	blockPos := make([]int, ch.NumInputs())
	for i := range blockPos {
		blockPos[i] = i
	}
	return locked.Circuit, blockPos
}

// broadcast returns all-ones for true and zero for false: one bit
// replicated across 64 simulation lanes.
func broadcast(v bool) uint64 {
	if v {
		return ^uint64(0)
	}
	return 0
}

// checkCubeByEvaluation checks, while the engine still holds the model
// of a just-reported cube, that every point of the cube disagrees under
// keyA and keyB with the model's side inputs — direct simulation of the
// locked circuit, 64 points per run.
func checkCubeByEvaluation(t *testing.T, e *Engine, sim *netlist.Simulator, keyA, keyB []bool, pat, free uint64) {
	t.Helper()
	ka := make([]uint64, len(keyA))
	kb := make([]uint64, len(keyB))
	for i := range keyA {
		ka[i], kb[i] = broadcast(keyA[i]), broadcast(keyB[i])
	}
	in := make([]uint64, len(e.inputs))
	for i, l := range e.inputs {
		in[i] = broadcast(e.solver.ModelValue(l))
	}
	var points []uint64
	cubePoints(pat, free, func(p uint64) { points = append(points, p) })
	for len(points) > 0 {
		batch := points
		if len(batch) > 64 {
			batch = batch[:64]
		}
		points = points[len(batch):]
		for bit, pos := range e.blockPos {
			var w uint64
			for lane, p := range batch {
				if p&(1<<uint(bit)) != 0 {
					w |= 1 << uint(lane)
				}
			}
			in[pos] = w
		}
		outA, err := sim.Run64(in, ka)
		if err != nil {
			t.Fatal(err)
		}
		outA = append([]uint64(nil), outA...)
		outB, err := sim.Run64(in, kb)
		if err != nil {
			t.Fatal(err)
		}
		var differ uint64
		for o := range outA {
			differ |= outA[o] ^ outB[o]
		}
		want := ^uint64(0)
		if len(batch) < 64 {
			want = uint64(1)<<uint(len(batch)) - 1
		}
		if differ&want != want {
			t.Fatalf("cube %b/%b: a point agrees under both keys with the model's side inputs", pat, free)
		}
	}
}

// TestCubeEnumerationSatpath enumerates cube-generalised DIP sets on
// the SAT-path shapes in both key-gate regimes: every point of every
// cube is a DIP by direct evaluation, no model falls in an earlier cube,
// cubes actually cover more than one point, a portfolio and a seeded
// (resumed) enumeration end with the identical set, and no seed is ever
// a model.
func TestCubeEnumerationSatpath(t *testing.T) {
	for ci, chain := range satpathChains {
		for _, aligned := range []bool{true, false} {
			seed := int64(3 + 5*ci)
			if aligned {
				seed++
			}
			locked, blockPos := satpathLocked(t, chain, aligned, seed)
			eng, err := New(locked, blockPos)
			if err != nil {
				t.Fatal(err)
			}
			port, err := NewPortfolio(locked, blockPos, 3)
			if err != nil {
				t.Fatal(err)
			}
			sim := netlist.MustNewSimulator(locked)
			rng := rand.New(rand.NewSource(seed))
			nk := locked.NumKeys()
			for trial := 0; trial < 2; trial++ {
				keyA, keyB := randomKey(rng, nk), randomKey(rng, nk)
				var cubes int
				full := collectCubes(t, func(visit func(pat, free uint64) bool) error {
					return eng.EnumerateDIPs(keyA, keyB, func(pat, free uint64) bool {
						checkCubeByEvaluation(t, eng, sim, keyA, keyB, pat, free)
						cubes++
						return visit(pat, free)
					})
				})
				t.Logf("%s aligned=%v trial %d: %d DIPs in %d cubes", chain, aligned, trial, len(full), cubes)
				if len(full) > 64 && cubes >= len(full) {
					t.Errorf("%s aligned=%v: %d cubes for %d DIPs, the lift freed nothing", chain, aligned, cubes, len(full))
				}
				if got := collectBackend(t, port, keyA, keyB); !sameSet(got, full) {
					t.Fatalf("%s aligned=%v: portfolio %d DIPs, engine %d", chain, aligned, len(got), len(full))
				}

				// Resume from every other DIP of the full set, on both
				// backends.
				seeded := make(map[uint64]bool)
				n := 0
				for p := range full {
					if n%2 == 0 {
						seeded[p] = true
					}
					n++
				}
				seedFn := func(yield func(pat uint64) bool) {
					for p := range seeded {
						if !yield(p) {
							return
						}
					}
				}
				for _, b := range []Backend{eng, port} {
					got := collectCubes(t, func(visit func(pat, free uint64) bool) error {
						return b.EnumerateDIPsSeeded(keyA, keyB, seedFn, func(pat, free uint64) bool {
							if seeded[pat] {
								t.Fatalf("%s aligned=%v: seeded pattern %b is a model", chain, aligned, pat)
							}
							return visit(pat, free)
						})
					})
					for p := range seeded {
						got[p] = true
					}
					if !sameSet(got, full) {
						t.Fatalf("%s aligned=%v: resumed %d DIPs, uninterrupted %d", chain, aligned, len(got), len(full))
					}
				}
			}
		}
	}
}

func sameSet(a, b map[uint64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for p := range a {
		if !b[p] {
			return false
		}
	}
	return true
}

// TestCubeBlockingClause pins the clause shape: one literal per fixed
// chain input, negated where the cube's pattern has a 1, none for free
// inputs, so the clause excludes exactly the cube.
func TestCubeBlockingClause(t *testing.T) {
	locked := lockedInstance(t, 6, "2A-O-A", 7)
	eng, err := New(locked, allInputs(locked))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ensure(); err != nil {
		t.Fatal(err)
	}
	cl := eng.cubeBlocking(nil, 0b101001, 0b001010)
	want := []int{0, 2, 4, 5}
	if len(cl) != len(want) {
		t.Fatalf("clause %v, want %d literals", cl, len(want))
	}
	for k, i := range want {
		l := eng.block[i]
		if 0b101001&(1<<uint(i)) != 0 {
			l = l.Neg()
		}
		if cl[k] != l {
			t.Fatalf("literal %d = %v, want %v", k, cl[k], l)
		}
	}
	if len(eng.cubeBlocking(nil, 0, 0b111111)) != 0 {
		t.Fatal("the full cube must block with the empty clause")
	}
}
