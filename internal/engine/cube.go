package engine

import (
	"fmt"

	"repro/internal/cnf"
	"repro/internal/miter"
	"repro/internal/netlist"
)

// miterEncoding is the key-differential miter in the two forms the
// engine queries it in: its Tseitin encoding (literals in the solver's
// variable space) and its compiled gate program (registers for the
// ternary cube lift). It is built once per backend and immutable
// afterwards; the members of a Portfolio share one, because their
// solvers hold identical variable numberings.
type miterEncoding struct {
	keysA  []cnf.Lit // copy A's key bits, in the locked circuit's key order
	keysB  []cnf.Lit // copy B's key bits
	inputs []cnf.Lit // primary inputs, in the locked circuit's input order
	block  []cnf.Lit // chain-input literals, in chain order
	diff   cnf.Lit   // the miter's disagreement output

	prog      *netlist.Program
	regInputs []int32 // primary-input registers, in input order
	regKeysA  []int32
	regKeysB  []int32
	regDiff   int32
}

// encodeMiter builds the key-differential miter of locked, Tseitin
// encodes it into sink and compiles it for ternary simulation.
func encodeMiter(locked *netlist.Circuit, blockPos []int, sink cnf.Sink) (*miterEncoding, error) {
	kd, err := miter.NewKeyDiff(locked)
	if err != nil {
		return nil, err
	}
	enc, err := cnf.EncodeInto(kd.Circuit, sink)
	if err != nil {
		return nil, err
	}
	prog, err := netlist.CompileCircuit(kd.Circuit)
	if err != nil {
		return nil, fmt.Errorf("engine: compiling the miter: %w", err)
	}
	keyLits := enc.KeyLits(kd.Circuit)
	m := &miterEncoding{
		keysA:   keyLits[:kd.NKeys],
		keysB:   keyLits[kd.NKeys:],
		inputs:  enc.InputLits(kd.Circuit),
		diff:    enc.OutputLits(kd.Circuit)[0],
		prog:    prog,
		regDiff: int32(kd.Circuit.Outputs()[0]),
	}
	m.block = make([]cnf.Lit, len(blockPos))
	for i, pos := range blockPos {
		m.block[i] = m.inputs[pos]
	}
	for _, id := range kd.Circuit.Inputs() {
		m.regInputs = append(m.regInputs, int32(id))
	}
	for i, id := range kd.Circuit.Keys() {
		if i < kd.NKeys {
			m.regKeysA = append(m.regKeysA, int32(id))
		} else {
			m.regKeysB = append(m.regKeysB, int32(id))
		}
	}
	return m, nil
}

// lifter is one engine's ternary-simulation scratch: a dual-rail
// register file over the shared miter program. Portfolio members each
// own one, so concurrent lifts never share memory.
type lifter struct {
	one, zero []uint64
	cands     []int
}

// setRail loads register r with the same definite value in every lane.
func setRail(one, zero []uint64, r int32, v bool) {
	if v {
		one[r], zero[r] = ^uint64(0), 0
	} else {
		one[r], zero[r] = 0, ^uint64(0)
	}
}

// liftCube widens the current SAT model — which satisfies the miter
// under keys A and B with block pattern pat — into a cube of DIPs, and
// returns the freed block inputs as a bit mask over chain positions.
// The model's side inputs and both keys are loaded as constants; each
// pass then tests free ∪ {i} for every remaining candidate i, one
// candidate per lane, and frees the first candidate (in chain order)
// whose lane keeps the miter output definitely 1. A candidate whose lane
// fails is dropped for good: ternary simulation is monotone, so it would
// fail against every larger free set too. Every completion of the
// returned cube is a DIP, witnessed by the model's side inputs.
func (e *Engine) liftCube(A, B []bool, pat uint64) uint64 {
	m := e.miterEncoding
	l := &e.lift
	if l.one == nil {
		l.one = make([]uint64, m.prog.NumRegs())
		l.zero = make([]uint64, m.prog.NumRegs())
	}
	one, zero := l.one, l.zero
	for i, r := range m.regInputs {
		setRail(one, zero, r, e.solver.ModelValue(m.inputs[i]))
	}
	for i, r := range m.regKeysA {
		setRail(one, zero, r, A[i])
	}
	for i, r := range m.regKeysB {
		setRail(one, zero, r, B[i])
	}
	cands := l.cands[:0]
	for i := range m.block {
		cands = append(cands, i)
	}
	var free uint64
	for len(cands) > 0 {
		for i, pos := range e.blockPos {
			r := m.regInputs[pos]
			if free&(1<<uint(i)) != 0 {
				one[r], zero[r] = 0, 0
			} else {
				setRail(one, zero, r, pat&(1<<uint(i)) != 0)
			}
		}
		for lane, c := range cands {
			r := m.regInputs[e.blockPos[c]]
			one[r] &^= 1 << uint(lane)
			zero[r] &^= 1 << uint(lane)
		}
		m.prog.ExecTernary(one, zero)
		ok := one[m.regDiff]
		picked := -1
		kept := cands[:0]
		for lane, c := range cands {
			switch {
			case ok&(1<<uint(lane)) == 0: // fails now, so fails forever
			case picked < 0:
				picked = c
			default:
				kept = append(kept, c)
			}
		}
		if picked < 0 {
			break
		}
		free |= 1 << uint(picked)
		cands = kept
	}
	l.cands = cands
	return free
}

// cubeBlocking appends to dst the blocking clause of the cube (pat,
// free): one literal per fixed chain input, excluding exactly the
// cube's points.
func (m *miterEncoding) cubeBlocking(dst []cnf.Lit, pat, free uint64) []cnf.Lit {
	for i, l := range m.block {
		bit := uint64(1) << uint(i)
		if free&bit != 0 {
			continue
		}
		dst = append(dst, signLit(l, pat&bit == 0))
	}
	return dst
}
