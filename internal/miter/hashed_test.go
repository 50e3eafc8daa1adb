package miter

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cnf"
	"repro/internal/lock"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// randomCircuit builds a circuit that exercises every folding rule of
// the hashed encoder: constant drivers in the fanin pool, duplicated
// and complementary fanins, multi-input XOR/XNOR, and key inputs mixed
// into the logic.
func randomCircuit(rng *rand.Rand, name string, nIn, nKeys, nGates, nOut int) *netlist.Circuit {
	c := netlist.New(name)
	var pool []netlist.ID
	for i := 0; i < nIn; i++ {
		pool = append(pool, c.MustAddInput(fmt.Sprintf("x%d", i)))
	}
	// Each key enters through an XOR/XNOR key gate on an input, as in
	// random logic locking, and also feeds the logic directly.
	for i := 0; i < nKeys; i++ {
		k := c.MustAddKey(fmt.Sprintf("k%d", i))
		typ := netlist.Xor
		if rng.Intn(2) == 0 {
			typ = netlist.Xnor
		}
		pool = append(pool, k, c.MustAddGate(typ, fmt.Sprintf("kg%d", i), pool[i%nIn], k))
	}
	consts := []netlist.ID{c.MustAddGate(netlist.Const0, "c0"), c.MustAddGate(netlist.Const1, "c1")}
	nary := []netlist.GateType{netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor}
	pick := func() netlist.ID {
		switch {
		case rng.Intn(12) == 0:
			return consts[rng.Intn(2)]
		case rng.Intn(3) > 0 && len(pool) > 8:
			// Favour recent gates so the circuit grows deep, not wide.
			return pool[len(pool)-1-rng.Intn(8)]
		}
		return pool[rng.Intn(len(pool))]
	}
	for g := 0; g < nGates; g++ {
		name := fmt.Sprintf("g%d", g)
		if rng.Intn(8) == 0 {
			pool = append(pool, c.MustAddGate(netlist.Not, name, pick()))
			continue
		}
		fanin := []netlist.ID{pick(), pick()}
		for rng.Intn(3) == 0 && len(fanin) < 5 {
			fanin = append(fanin, pick())
		}
		switch rng.Intn(5) {
		case 0: // duplicate operand
			fanin = append(fanin, fanin[0])
		case 1: // complementary operand
			fanin = append(fanin, c.MustAddGate(netlist.Not, name+"_n", fanin[0]))
		}
		rng.Shuffle(len(fanin), func(i, j int) { fanin[i], fanin[j] = fanin[j], fanin[i] })
		pool = append(pool, c.MustAddGate(nary[rng.Intn(len(nary))], name, fanin...))
	}
	for i := 0; i < nOut; i++ {
		c.MustMarkOutput(pool[len(pool)-1-i])
	}
	if err := c.Validate(); err != nil {
		panic(err)
	}
	return c
}

// rewrite rebuilds a key-free circuit through function-preserving
// rewrites (De Morgan, XOR/XNOR polarity moves, fanin permutation,
// buffers), so the copy computes the same function with different
// structure. With perturb set, three gates change function as well,
// which usually (not always) changes the circuit's function.
func rewrite(rng *rand.Rand, c *netlist.Circuit, perturb bool) *netlist.Circuit {
	out := netlist.New(c.Name + "_rw")
	remap := make([]netlist.ID, c.NumGates())
	for _, id := range c.Inputs() {
		remap[id] = out.MustAddInput(c.Gate(id).Name)
	}
	order, err := c.TopoOrder()
	if err != nil {
		panic(err)
	}
	victims := map[int]bool{}
	for perturb && len(victims) < 3 {
		victims[rng.Intn(len(order))] = true
	}
	n := 0
	fresh := func() string { n++; return fmt.Sprintf("rw%d", n) }
	for k, id := range order {
		g := c.Gate(id)
		if g.Type == netlist.Input {
			continue
		}
		fanin := make([]netlist.ID, len(g.Fanin))
		for i, f := range g.Fanin {
			fanin[i] = remap[f]
		}
		rng.Shuffle(len(fanin), func(i, j int) { fanin[i], fanin[j] = fanin[j], fanin[i] })
		typ := g.Type
		if victims[k] && len(fanin) >= 2 {
			typ = []netlist.GateType{netlist.And, netlist.Or, netlist.Xor, netlist.Nand}[rng.Intn(4)]
			if typ == g.Type {
				typ = netlist.Xnor
			}
		}
		var v netlist.ID
		switch {
		case len(fanin) >= 2 && (typ == netlist.And || typ == netlist.Nor) && rng.Intn(2) == 0:
			// AND(a..) = NOR(¬a..); NOR(a..) = AND(¬a..).
			neg := make([]netlist.ID, len(fanin))
			for i, f := range fanin {
				neg[i] = out.MustAddGate(netlist.Not, fresh(), f)
			}
			dual := netlist.Nor
			if typ == netlist.Nor {
				dual = netlist.And
			}
			v = out.MustAddGate(dual, fresh(), neg...)
		case len(fanin) >= 2 && (typ == netlist.Xor || typ == netlist.Xnor) && rng.Intn(2) == 0:
			// Move one inversion from the output onto an operand.
			fanin[0] = out.MustAddGate(netlist.Not, fresh(), fanin[0])
			dual := netlist.Xnor
			if typ == netlist.Xnor {
				dual = netlist.Xor
			}
			v = out.MustAddGate(dual, fresh(), fanin...)
		default:
			v = out.MustAddGate(typ, fresh(), fanin...)
			if rng.Intn(4) == 0 {
				v = out.MustAddGate(netlist.Buf, fresh(), v)
			}
		}
		remap[id] = v
	}
	for _, o := range c.Outputs() {
		out.MustMarkOutput(remap[o])
	}
	if err := out.Validate(); err != nil {
		panic(err)
	}
	return out
}

func randomKey(rng *rand.Rand, n int) []bool {
	k := make([]bool, n)
	for i := range k {
		k[i] = rng.Intn(2) == 1
	}
	return k
}

// assertWitness checks that a reported witness really separates the two
// circuits (each under its key; nil for key-free).
func assertWitness(t *testing.T, a *netlist.Circuit, keyA []bool, b *netlist.Circuit, keyB []bool, w []bool) {
	t.Helper()
	if len(w) != a.NumInputs() {
		t.Fatalf("witness has %d bits, want %d", len(w), a.NumInputs())
	}
	oa, err := a.Eval(w, keyA)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := b.Eval(w, keyB)
	if err != nil {
		t.Fatal(err)
	}
	for i := range oa {
		if oa[i] != ob[i] {
			return
		}
	}
	t.Fatal("witness does not distinguish the circuits")
}

// TestHashedProverAgreesWithPlain: on random key-free circuits and
// their rewritten (sometimes perturbed) twins, the folding, lazily
// emitting prover returns the plain full-encoding prover's verdict, with
// a genuine witness whenever it reports a difference.
func TestHashedProverAgreesWithPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var equal, differ int
	for trial := 0; trial < 300; trial++ {
		a := randomCircuit(rng, "a", 6+rng.Intn(4), 0, 20+rng.Intn(40), 1+rng.Intn(3))
		b := rewrite(rng, a, trial%2 == 1)
		plain, _, err := ProveEquivalent(a, b)
		if err != nil {
			t.Fatal(err)
		}
		hashed, w, err := ProveEquivalentHashed(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if plain != hashed {
			t.Fatalf("trial %d: plain=%v hashed=%v", trial, plain, hashed)
		}
		if hashed {
			equal++
			if w != nil {
				t.Fatalf("trial %d: equivalent pair returned a witness", trial)
			}
			continue
		}
		differ++
		assertWitness(t, a, nil, b, nil, w)
	}
	t.Logf("%d equivalent, %d differing pairs", equal, differ)
	if equal < 100 || differ < 30 {
		t.Fatalf("degenerate sample: %d equivalent, %d differing pairs", equal, differ)
	}
}

// TestHashedUnlockedAgreesWithPlain: ProveUnlockedHashed, which binds
// the key inside the encoding, agrees with the plain ProveUnlocked on
// random keyed circuits, for the reference key and for other keys.
func TestHashedUnlockedAgreesWithPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var proven, refuted int
	for trial := 0; trial < 200; trial++ {
		nKeys := 2 + rng.Intn(4)
		locked := randomCircuit(rng, "l", 6+rng.Intn(3), nKeys, 20+rng.Intn(30), 1+rng.Intn(3))
		k0 := randomKey(rng, nKeys)
		ref, err := locked.BindKeys("ref", k0)
		if err != nil {
			t.Fatal(err)
		}
		key := append([]bool(nil), k0...)
		if trial%2 == 1 {
			i := rng.Intn(nKeys)
			key[i] = !key[i]
		}
		plain, err := ProveUnlocked(locked, key, ref)
		if err != nil {
			t.Fatal(err)
		}
		hashed, err := ProveUnlockedHashed(locked, key, ref)
		if err != nil {
			t.Fatal(err)
		}
		if plain != hashed {
			t.Fatalf("trial %d: plain=%v hashed=%v", trial, plain, hashed)
		}
		if hashed {
			proven++
		} else {
			refuted++
		}
	}
	t.Logf("%d proven, %d refuted", proven, refuted)
	if proven < 100 || refuted < 20 {
		t.Fatalf("degenerate sample: %d proven, %d refuted", proven, refuted)
	}
}

// TestKeyedTwoKeyAgreesWithActivated: the keyed two-key entry agrees
// with proving two activated copies equivalent, and its witnesses
// separate the two keys.
func TestKeyedTwoKeyAgreesWithActivated(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var equal, differ int
	for trial := 0; trial < 200; trial++ {
		nKeys := 2 + rng.Intn(4)
		locked := randomCircuit(rng, "l", 6+rng.Intn(3), nKeys, 20+rng.Intn(30), 1+rng.Intn(3))
		keyA := randomKey(rng, nKeys)
		keyB := randomKey(rng, nKeys)
		if trial%3 == 0 {
			copy(keyB, keyA)
		}
		actA, err := locked.BindKeys("a", keyA)
		if err != nil {
			t.Fatal(err)
		}
		actB, err := locked.BindKeys("b", keyB)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := ProveEquivalentHashed(actA, actB)
		if err != nil {
			t.Fatal(err)
		}
		plain, _, err := ProveEquivalent(actA, actB)
		if err != nil {
			t.Fatal(err)
		}
		if want != plain {
			t.Fatalf("trial %d: activated hashed=%v plain=%v", trial, want, plain)
		}
		got, w, err := ProveKeysEquivalentBudget(locked, keyA, keyB, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: keyed=%v activated=%v", trial, got, want)
		}
		if got {
			equal++
			continue
		}
		differ++
		assertWitness(t, locked, keyA, locked, keyB, w)
	}
	t.Logf("%d equivalent, %d differing key pairs", equal, differ)
	if equal < 60 || differ < 30 {
		t.Fatalf("degenerate sample: %d equivalent, %d differing key pairs", equal, differ)
	}
}

// TestTableIKeyBitFlipsRefuted: the correct key of a Table I 32-bit row
// is proven, and every single-bit flip of it is refuted by both the
// hashed prover and the keyed two-key entry.
func TestTableIKeyBitFlipsRefuted(t *testing.T) {
	prof, err := synth.ProfileByName("c432")
	if err != nil {
		t.Fatal(err)
	}
	host, err := synth.Generate(synth.FromProfile(prof, 5))
	if err != nil {
		t.Fatal(err)
	}
	chain := lock.MustParseChain("A-O-2A-O-2A-O-2A-O-2A-O-A")
	locked, _, err := lock.ApplyCAS(host, lock.CASOptions{Chain: chain, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if locked.Circuit.NumKeys() != 32 {
		t.Fatalf("row has %d key bits, want 32", locked.Circuit.NumKeys())
	}
	ok, err := ProveUnlockedHashed(locked.Circuit, locked.Key, host)
	if err != nil || !ok {
		t.Fatalf("correct key not proven: %v, %v", ok, err)
	}
	for i := range locked.Key {
		flipped := append([]bool(nil), locked.Key...)
		flipped[i] = !flipped[i]
		ok, err := ProveUnlockedHashed(locked.Circuit, flipped, host)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Errorf("key with bit %d flipped proven correct", i)
		}
		eq, w, err := ProveKeysEquivalentBudget(locked.Circuit, locked.Key, flipped, 0)
		if err != nil {
			t.Fatal(err)
		}
		if eq {
			t.Errorf("keyed entry: bit %d flip equivalent to the correct key", i)
			continue
		}
		assertWitness(t, locked.Circuit, locked.Key, locked.Circuit, flipped, w)
	}
}

// TestHashedBudgetExhaustedMeansEquivalent pins the budget contract on
// a pair that differs on one input out of 2^24: a parity chain against
// a parity tree XORed with the conjunction of all inputs. The unlimited
// proof finds the all-ones witness; a one-conflict budget runs out first
// and must report equivalent with a nil witness and no error.
func TestHashedBudgetExhaustedMeansEquivalent(t *testing.T) {
	const n = 24
	chain := netlist.New("chain")
	tree := netlist.New("tree")
	var xa, xb []netlist.ID
	for i := 0; i < n; i++ {
		xa = append(xa, chain.MustAddInput(fmt.Sprintf("x%d", i)))
		xb = append(xb, tree.MustAddInput(fmt.Sprintf("x%d", i)))
	}
	acc := xa[0]
	for i := 1; i < n; i++ {
		acc = chain.MustAddGate(netlist.Xor, fmt.Sprintf("c%d", i), acc, xa[i])
	}
	chain.MustMarkOutput(acc)
	level := xb
	for l := 0; len(level) > 1; l++ {
		var next []netlist.ID
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, tree.MustAddGate(netlist.Xor, fmt.Sprintf("t%d_%d", l, i), level[i], level[i+1]))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	all := tree.MustAddGate(netlist.And, "all", xb...)
	tree.MustMarkOutput(tree.MustAddGate(netlist.Xor, "out", level[0], all))

	eq, w, err := ProveEquivalentHashedBudget(chain, tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("unlimited proof missed the all-ones difference")
	}
	assertWitness(t, chain, nil, tree, nil, w)

	eq, w, err = ProveEquivalentHashedBudget(chain, tree, 1)
	if err != nil {
		t.Fatalf("exhausted budget returned an error: %v", err)
	}
	if !eq || w != nil {
		t.Fatalf("exhausted budget: equivalent=%v witness=%v, want true and nil", eq, w)
	}
}

// TestEncoderFoldingRules pins each folding rule at the node level.
func TestEncoderFoldingRules(t *testing.T) {
	h := newHashedEncoder(16)
	x, y := h.input(), h.input()
	tru := litFalse.Neg()
	lits := func(ls ...cnf.Lit) []cnf.Lit { return ls }
	for _, tc := range []struct {
		name      string
		got, want cnf.Lit
	}{
		{"and unit", h.and(lits(x, tru)), x},
		{"and absorb", h.and(lits(x, litFalse, y)), litFalse},
		{"and duplicate", h.and(lits(x, y, x)), h.and(lits(x, y))},
		{"and complement", h.and(lits(x, y, -x)), litFalse},
		{"and empty", h.and(lits(tru, tru)), tru},
		{"and2 complement", h.and2(x, -x), litFalse},
		{"and operand order", h.and(lits(y, x)), h.and(lits(x, y))},
		{"or De Morgan", h.or2(x, y), -h.and(lits(-x, -y))},
		{"xor self", h.xor(lits(x, x)), litFalse},
		{"xor complement", h.xor(lits(x, -x)), tru},
		{"xor constant parity", h.xor(lits(x, tru, y)), -h.xor(lits(x, y))},
		{"xor inversion parity", h.xor(lits(-x, -y)), h.xor(lits(x, y))},
		{"xor pair cancels", h.xor(lits(x, y, x)), y},
		{"xor false drops", h.xor(lits(litFalse, x)), x},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: got %d, want %d", tc.name, tc.got, tc.want)
		}
	}
	if _, ok := h.table[gateKey{opAnd, int32(x), int32(y)}]; !ok {
		t.Error("AND(x, y) is not hashed under its sorted operands")
	}
}

// TestCorrectKeyHashesEqual: on a Table I row the correct key's
// constants fold the CAS block away, so every output of the locked
// netlist hashes to the host's literal and the proof needs no solver.
func TestCorrectKeyHashesEqual(t *testing.T) {
	prof, err := synth.ProfileByName("c880")
	if err != nil {
		t.Fatal(err)
	}
	host, err := synth.Generate(synth.FromProfile(prof, 3))
	if err != nil {
		t.Fatal(err)
	}
	locked, _, err := lock.ApplyCAS(host, lock.CASOptions{Chain: lock.MustParseChain("A-O-2A-O-2A-O-2A-O-2A-O-A"), Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := newHashedEncoder(2 * host.NumGates())
	ins := make([]cnf.Lit, host.NumInputs())
	for i := range ins {
		ins[i] = h.input()
	}
	outsL, err := h.encode(locked.Circuit, ins, locked.Key)
	if err != nil {
		t.Fatal(err)
	}
	outsH, err := h.encode(host, ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range outsL {
		if outsL[i] != outsH[i] {
			t.Errorf("output %d: locked literal %d, host literal %d", i, outsL[i], outsH[i])
		}
	}
}
