package netlist

import (
	"math/rand"
	"testing"
)

// ternarySources lists the registers a ternary run loads: the circuit's
// primary inputs, then its keys (both are Input-type gates, so their
// registers are loaded rather than computed).
func ternarySources(c *Circuit) []ID {
	return append(append([]ID(nil), c.Inputs()...), c.Keys()...)
}

// checkTernary runs ExecTernary with the dual-rail source words in1/in0
// (indexed like ternarySources) and checks every register in every lane
// against Exec on every 0/1 completion of that lane's X sources,
// exhaustively: a definite value must match all completions, no lane
// may have both rails set, and a lane without X sources must come out
// definite everywhere (so all-definite inputs reproduce Exec exactly).
// It returns the ternary register file for further comparison.
func checkTernary(t testing.TB, c *Circuit, p *Program, in1, in0 []uint64) (one, zero []uint64) {
	t.Helper()
	srcs := ternarySources(c)
	one = make([]uint64, p.NumRegs())
	zero = make([]uint64, p.NumRegs())
	for i, id := range srcs {
		one[id], zero[id] = in1[i], in0[i]
	}
	p.ExecTernary(one, zero)
	for r := range one {
		if one[r]&zero[r] != 0 {
			t.Fatalf("register %d has both rails set in lanes %#x", r, one[r]&zero[r])
		}
	}
	regs := make([]uint64, p.NumRegs())
	var xs []int
	for lane := uint(0); lane < 64; lane++ {
		xs = xs[:0]
		for i := range srcs {
			if (in1[i]|in0[i])>>lane&1 == 0 {
				xs = append(xs, i)
			}
		}
		total := 1 << uint(len(xs))
		for base := 0; base < total; base += 64 {
			valid := ^uint64(0)
			if total-base < 64 {
				valid = uint64(1)<<uint(total-base) - 1
			}
			for i, id := range srcs {
				regs[id] = 0
				if in1[i]>>lane&1 != 0 {
					regs[id] = ^uint64(0)
				}
			}
			// Word lane j carries completion base+j of the X sources.
			for k, i := range xs {
				var w uint64
				for j := 0; j < 64 && base+j < total; j++ {
					if (base+j)>>uint(k)&1 != 0 {
						w |= 1 << uint(j)
					}
				}
				regs[srcs[i]] = w
			}
			p.Exec(regs)
			for r := range regs {
				switch {
				case one[r]>>lane&1 != 0:
					if regs[r]&valid != valid {
						t.Fatalf("lane %d register %d: ternary 1, a completion gives 0 (X sources %v)", lane, r, xs)
					}
				case zero[r]>>lane&1 != 0:
					if regs[r]&valid != 0 {
						t.Fatalf("lane %d register %d: ternary 0, a completion gives 1 (X sources %v)", lane, r, xs)
					}
				case len(xs) == 0:
					t.Fatalf("lane %d register %d: X with every source definite", lane, r)
				}
			}
		}
	}
	return one, zero
}

// randomDualRail draws per-lane source values with up to maxX X sources
// per lane (the rest random 0/1).
func randomDualRail(rng *rand.Rand, nSrc, maxX int) (in1, in0 []uint64) {
	in1 = make([]uint64, nSrc)
	in0 = make([]uint64, nSrc)
	for lane := uint(0); lane < 64; lane++ {
		nx := 0
		if maxX > 0 {
			nx = rng.Intn(maxX + 1)
		}
		perm := rng.Perm(nSrc)
		for k, i := range perm {
			switch {
			case k < nx: // X: neither rail
			case rng.Intn(2) == 1:
				in1[i] |= 1 << lane
			default:
				in0[i] |= 1 << lane
			}
		}
	}
	return in1, in0
}

// TestExecTernarySound is the kernel's soundness property on random
// programs over every opcode: definite results agree with Exec on every
// completion of up to 10 X sources per lane, all-definite lanes are
// exact, and widening the X set never flips a definite value or turns
// an X definite (the monotonicity the engine's greedy lift relies on).
func TestExecTernarySound(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 80; trial++ {
		nIn := 1 + rng.Intn(10)
		nKey := rng.Intn(4)
		c := randomProgramCircuit(rng, nIn, nKey, 1+rng.Intn(40))
		p, err := CompileCircuit(c)
		if err != nil {
			t.Fatal(err)
		}
		nSrc := nIn + nKey
		maxX := nSrc
		if maxX > 10 {
			maxX = 10
		}
		if trial%8 == 0 {
			maxX = 0 // all-definite: must reproduce Exec exactly
		}
		in1, in0 := randomDualRail(rng, nSrc, maxX)
		one, zero := checkTernary(t, c, p, in1, in0)

		// Widen: clear both rails of one more source in random lanes.
		wide1 := append([]uint64(nil), in1...)
		wide0 := append([]uint64(nil), in0...)
		i := rng.Intn(nSrc)
		mask := rng.Uint64()
		wide1[i] &^= mask
		wide0[i] &^= mask
		w1, w0 := checkTernary(t, c, p, wide1, wide0)
		for r := range one {
			if w1[r]&^one[r] != 0 || w0[r]&^zero[r] != 0 {
				t.Fatalf("trial %d register %d: widening the X set made lanes more definite (1: %#x, 0: %#x)",
					trial, r, w1[r]&^one[r], w0[r]&^zero[r])
			}
		}
	}
}

// TestExecTernaryOpcodes pins each opcode's truth table, including every
// X row: AND/OR are decided by a controlling definite operand, XOR never
// is.
func TestExecTernaryOpcodes(t *testing.T) {
	const (
		x  = 0
		v0 = 1
		v1 = 2
	)
	cases := []struct {
		t    GateType
		a, b int
		want int
	}{
		{And, v0, x, v0}, {And, v1, x, x}, {And, v1, v1, v1},
		{Nand, v0, x, v1}, {Nand, x, x, x},
		{Or, v1, x, v1}, {Or, v0, x, x}, {Or, v0, v0, v0},
		{Nor, x, v1, v0}, {Nor, v0, v0, v1},
		{Xor, v1, x, x}, {Xor, v1, v0, v1}, {Xor, v1, v1, v0},
		{Xnor, x, v0, x}, {Xnor, v0, v0, v1},
	}
	for _, tc := range cases {
		c := New("op")
		a := c.MustAddInput("a")
		b := c.MustAddInput("b")
		g := c.MustAddGate(tc.t, "g", a, b)
		c.MustMarkOutput(g)
		p, err := CompileCircuit(c)
		if err != nil {
			t.Fatal(err)
		}
		one := make([]uint64, p.NumRegs())
		zero := make([]uint64, p.NumRegs())
		load := func(id ID, v int) {
			switch v {
			case v0:
				zero[id] = 1
			case v1:
				one[id] = 1
			}
		}
		load(a, tc.a)
		load(b, tc.b)
		p.ExecTernary(one, zero)
		got := x
		if one[g]&1 != 0 {
			got = v1
		} else if zero[g]&1 != 0 {
			got = v0
		}
		if got != tc.want {
			t.Errorf("%s(%d, %d) = %d, want %d", tc.t, tc.a, tc.b, got, tc.want)
		}
	}
}

// FuzzExecTernary decodes the fuzz input into a small DAG (the same
// decoder as FuzzProgramVsEval64) plus a per-source X mask and checks
// ExecTernary against Exec on every completion of the X sources.
func FuzzExecTernary(f *testing.F) {
	f.Add([]byte{3, 1, 5, 0x11, 0x22, 0x33, 0x44, 0x0f})
	f.Add([]byte{6, 2, 20, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0xa5, 0x3c})
	f.Add([]byte{1, 0, 9, 0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0x77, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		c, _, _, _ := fuzzCircuit(next)
		p, err := CompileCircuit(c)
		if err != nil {
			t.Fatalf("CompileCircuit: %v", err)
		}
		// The decoder caps sources at 8 inputs + 3 keys; X marks come
		// from the next bytes, one bit per source, the same in every
		// lane, with lane values drawn from a seeded generator.
		srcs := ternarySources(c)
		xmask := uint64(next()) | uint64(next())<<8
		rng := rand.New(rand.NewSource(int64(next())))
		in1 := make([]uint64, len(srcs))
		in0 := make([]uint64, len(srcs))
		for i := range srcs {
			if xmask>>uint(i)&1 != 0 {
				continue
			}
			in1[i] = rng.Uint64()
			in0[i] = ^in1[i]
		}
		checkTernary(t, c, p, in1, in0)
	})
}
