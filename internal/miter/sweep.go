package miter

import (
	"fmt"

	"repro/internal/cnf"
	"repro/internal/netlist"
	"repro/internal/sat"
)

// hashedEncoder builds circuits into one structurally hashed AND/XOR
// graph and Tseitin-encodes only what a proof needs. It is the
// lightweight SAT sweeping that makes equivalence checks of "host +
// small difference" pairs — the common case when checking recovered
// keys — essentially free:
//
//   - Key inputs bind to constants inside the graph, so a locked
//     netlist is proved under a key without building an activated copy.
//   - Gates fold as they are built: constants absorb or drop out,
//     duplicate operands merge, complementary operands collapse to a
//     constant, and XOR operands pull their inversions and constants
//     into the output parity.
//   - Every surviving gate becomes a chain of two-operand AND/XOR nodes
//     (OR/NOR/NAND/XNOR through De Morgan and output inversion), hashed
//     by operator and sorted operand literals, so identical logic in the
//     two circuits shares nodes.
//   - Clauses are emitted lazily, for the cone of the miter output only:
//     outputs that hash equal fold out of the miter, and when every pair
//     does, the proof never reaches the solver.
//
// Graph literals use the cnf.Lit convention over node indices; node 1
// is the constant-false node.
type hashedEncoder struct {
	nodes []node
	table map[gateKey]cnf.Lit
	ops   []cnf.Lit // operand scratch for n-ary gates
}

const (
	opInput uint32 = iota
	opConst
	opAnd
	opXor
)

// litFalse is the constant-false graph literal (litFalse.Neg() is true).
const litFalse cnf.Lit = 1

type node struct {
	op   uint32
	a, b cnf.Lit
}

// gateKey identifies a two-operand node: operator plus its operand
// literals in ascending order.
type gateKey struct {
	op   uint32
	a, b int32
}

func newHashedEncoder(sizeHint int) *hashedEncoder {
	h := &hashedEncoder{
		nodes: make([]node, 2, sizeHint+2),
		table: make(map[gateKey]cnf.Lit, sizeHint),
	}
	h.nodes[1] = node{op: opConst}
	return h
}

// input adds a free input node.
func (h *hashedEncoder) input() cnf.Lit {
	h.nodes = append(h.nodes, node{op: opInput})
	return cnf.Lit(len(h.nodes) - 1)
}

// node returns the hashed two-operand node op(a, b), creating it on
// first use.
func (h *hashedEncoder) node(op uint32, a, b cnf.Lit) cnf.Lit {
	if a > b {
		a, b = b, a
	}
	k := gateKey{op, int32(a), int32(b)}
	if l, ok := h.table[k]; ok {
		return l
	}
	h.nodes = append(h.nodes, node{op, a, b})
	l := cnf.Lit(len(h.nodes) - 1)
	h.table[k] = l
	return l
}

func (h *hashedEncoder) and2(a, b cnf.Lit) cnf.Lit {
	switch {
	case a == litFalse || b == litFalse || a == -b:
		return litFalse
	case a == -litFalse || a == b:
		return b
	case b == -litFalse:
		return a
	}
	return h.node(opAnd, a, b)
}

func (h *hashedEncoder) or2(a, b cnf.Lit) cnf.Lit { return -h.and2(-a, -b) }

func (h *hashedEncoder) xor2(a, b cnf.Lit) cnf.Lit {
	inv := false
	if a < 0 {
		a, inv = -a, !inv
	}
	if b < 0 {
		b, inv = -b, !inv
	}
	var r cnf.Lit
	switch {
	case a == b:
		r = litFalse
	case a == litFalse:
		r = b
	case b == litFalse:
		r = a
	default:
		r = h.node(opXor, a, b)
	}
	if inv {
		r = -r
	}
	return r
}

// sortLits orders literals by variable, negative before positive, so a
// literal's duplicate or complement sits next to it. Fanins are short,
// so insertion sort beats a generic sort.
func sortLits(ls []cnf.Lit) {
	less := func(x, y cnf.Lit) bool {
		if vx, vy := x.Var(), y.Var(); vx != vy {
			return vx < vy
		}
		return x < y
	}
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && less(ls[j], ls[j-1]); j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
}

// and folds an n-ary conjunction (ops is clobbered): true operands drop
// out, a false operand or a complementary pair absorbs the gate, and
// duplicates merge. The survivors chain in literal order, so operand
// order never changes the hash.
func (h *hashedEncoder) and(ops []cnf.Lit) cnf.Lit {
	sortLits(ops)
	out := ops[:0]
	for _, l := range ops {
		switch {
		case l == litFalse:
			return litFalse
		case l == -litFalse:
			continue
		}
		if n := len(out); n > 0 {
			if out[n-1] == l {
				continue
			}
			if out[n-1] == -l {
				return litFalse
			}
		}
		out = append(out, l)
	}
	acc := -litFalse
	for _, l := range out {
		acc = h.and2(acc, l)
	}
	return acc
}

// xor folds an n-ary parity (ops is clobbered): inversions and true
// operands toggle the output polarity, false operands drop out and
// equal operand pairs cancel.
func (h *hashedEncoder) xor(ops []cnf.Lit) cnf.Lit {
	inv := false
	for i, l := range ops {
		if l < 0 {
			ops[i], inv = -l, !inv
		}
	}
	sortLits(ops)
	out := ops[:0]
	for _, l := range ops {
		if l == litFalse {
			continue
		}
		if n := len(out); n > 0 && out[n-1] == l {
			out = out[:n-1]
			continue
		}
		out = append(out, l)
	}
	acc := litFalse
	for _, l := range out {
		acc = h.xor2(acc, l)
	}
	if inv {
		acc = -acc
	}
	return acc
}

// encode builds c into the graph with its primary inputs on ins and its
// key inputs bound to the constants of key (nil for a key-free
// circuit), and returns its output literals.
func (h *hashedEncoder) encode(c *netlist.Circuit, ins []cnf.Lit, key []bool) ([]cnf.Lit, error) {
	if len(key) != c.NumKeys() {
		return nil, fmt.Errorf("miter: key length %d, circuit %q has %d key inputs", len(key), c.Name, c.NumKeys())
	}
	if len(ins) != c.NumInputs() {
		return nil, fmt.Errorf("miter: %d input literals for %d inputs", len(ins), c.NumInputs())
	}
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	lit := make([]cnf.Lit, c.NumGates())
	for i, id := range c.Inputs() {
		lit[id] = ins[i]
	}
	for i, id := range c.Keys() {
		lit[id] = litFalse
		if key[i] {
			lit[id] = -litFalse
		}
	}
	for _, id := range order {
		g := c.Gate(id)
		switch g.Type {
		case netlist.Input:
			continue
		case netlist.Const0:
			lit[id] = litFalse
			continue
		case netlist.Const1:
			lit[id] = -litFalse
			continue
		case netlist.Buf:
			lit[id] = lit[g.Fanin[0]]
			continue
		case netlist.Not:
			lit[id] = -lit[g.Fanin[0]]
			continue
		}
		// OR/NOR reach the AND node through De Morgan: negate the
		// operands here and the output below.
		negIn := g.Type == netlist.Or || g.Type == netlist.Nor
		ops := h.ops[:0]
		for _, f := range g.Fanin {
			l := lit[f]
			if negIn {
				l = -l
			}
			ops = append(ops, l)
		}
		h.ops = ops
		var v cnf.Lit
		switch g.Type {
		case netlist.And, netlist.Nand, netlist.Or, netlist.Nor:
			v = h.and(ops)
		case netlist.Xor, netlist.Xnor:
			v = h.xor(ops)
		default:
			return nil, fmt.Errorf("miter: gate %q: unsupported type %s", g.Name, g.Type)
		}
		switch g.Type {
		case netlist.Nand, netlist.Or, netlist.Xnor:
			v = -v
		}
		lit[id] = v
	}
	outs := make([]cnf.Lit, c.NumOutputs())
	for i, o := range c.Outputs() {
		outs[i] = lit[o]
	}
	return outs, nil
}

// solve decides whether the graph literal root can be true: it emits
// the clauses of root's cone (and nothing else) into a fresh solver and
// solves under root. It returns (true, nil) when root is unsatisfiable
// and (false, witness) with values for the input nodes ins otherwise.
// An exhausted conflictBudget (0 = unlimited) reads as unsatisfiable.
func (h *hashedEncoder) solve(root cnf.Lit, ins []cnf.Lit, conflictBudget uint64) (bool, []bool, error) {
	s := sat.New()
	s.ConflictBudget = conflictBudget
	vars := make([]cnf.Lit, len(h.nodes)) // node → solver variable, 0 until emitted
	toSolver := func(l cnf.Lit) cnf.Lit {
		if l < 0 {
			return -vars[-l]
		}
		return vars[l]
	}
	// Iterative post-order walk: a node is emitted once both operands
	// have solver variables.
	stack := []cnf.Lit{cnf.Lit(root.Var())}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		if vars[n] != 0 {
			stack = stack[:len(stack)-1]
			continue
		}
		nd := h.nodes[n]
		if nd.op == opAnd || nd.op == opXor {
			ready := true
			for _, op := range [2]cnf.Lit{nd.a, nd.b} {
				if v := cnf.Lit(op.Var()); vars[v] == 0 {
					stack = append(stack, v)
					ready = false
				}
			}
			if !ready {
				continue
			}
		}
		stack = stack[:len(stack)-1]
		v := s.NewVar()
		vars[n] = v
		switch nd.op {
		case opConst:
			s.Add(v.Neg())
		case opAnd:
			a, b := toSolver(nd.a), toSolver(nd.b)
			s.Add(v.Neg(), a)
			s.Add(v.Neg(), b)
			s.Add(v, a.Neg(), b.Neg())
		case opXor:
			a, b := toSolver(nd.a), toSolver(nd.b)
			s.Add(v.Neg(), a, b)
			s.Add(v.Neg(), a.Neg(), b.Neg())
			s.Add(v, a.Neg(), b)
			s.Add(v, a, b.Neg())
		}
	}
	switch s.Solve(toSolver(root)) {
	case sat.Unsat:
		return true, nil, nil
	case sat.Sat:
		witness := make([]bool, len(ins))
		for i, l := range ins {
			if v := vars[l]; v != 0 {
				witness[i] = s.ModelValue(v)
			}
		}
		return false, witness, nil
	}
	if conflictBudget > 0 {
		return true, nil, nil // budget exhausted: treated as "no difference found"
	}
	return false, nil, fmt.Errorf("miter: solver returned UNKNOWN")
}

// proveHashed decides whether circuit a under keyA and circuit b under
// keyB (nil for key-free circuits) compute the same function, sharing
// one input vector. Unknown under a positive conflictBudget reads as
// equivalent with a nil witness.
func proveHashed(a *netlist.Circuit, keyA []bool, b *netlist.Circuit, keyB []bool, conflictBudget uint64) (bool, []bool, error) {
	if a.NumInputs() != b.NumInputs() || a.NumOutputs() != b.NumOutputs() {
		return false, nil, fmt.Errorf("miter: shape mismatch: %s vs %s", a, b)
	}
	// Size for one circuit: the second mostly hashes onto the first.
	h := newHashedEncoder(max(a.NumGates(), b.NumGates()))
	ins := make([]cnf.Lit, a.NumInputs())
	for i := range ins {
		ins[i] = h.input()
	}
	outsA, err := h.encode(a, ins, keyA)
	if err != nil {
		return false, nil, err
	}
	outsB, err := h.encode(b, ins, keyB)
	if err != nil {
		return false, nil, err
	}
	// The miter output: OR over the output XORs. Pairs that hashed to the
	// same literal fold to false and drop out.
	diff := litFalse
	for i := range outsA {
		diff = h.or2(diff, h.xor2(outsA[i], outsB[i]))
	}
	switch diff {
	case litFalse:
		return true, nil, nil
	case -litFalse:
		return false, make([]bool, len(ins)), nil // every input distinguishes
	}
	return h.solve(diff, ins, conflictBudget)
}

// ProveEquivalentHashed decides functional equivalence of two key-free
// circuits using structural hashing before SAT. Semantically identical to
// ProveEquivalent, but fast when the circuits share most of their logic.
func ProveEquivalentHashed(a, b *netlist.Circuit) (bool, []bool, error) {
	return ProveEquivalentHashedBudget(a, b, 0)
}

// ProveEquivalentHashedBudget is ProveEquivalentHashed with a SAT
// conflict budget: when the budget (0 = unlimited) is exhausted the pair
// is reported equivalent=true with a nil witness and no error — callers
// that need certainty must pass 0.
func ProveEquivalentHashedBudget(a, b *netlist.Circuit, conflictBudget uint64) (bool, []bool, error) {
	if a.NumKeys() != 0 || b.NumKeys() != 0 {
		return false, nil, fmt.Errorf("miter: equivalence check needs key-free circuits")
	}
	return proveHashed(a, nil, b, nil, conflictBudget)
}

// ProveKeysEquivalentBudget decides whether a locked circuit computes
// the same function under keyA as under keyB, returning a distinguishing
// input when it does not. Both keys bind inside the hashed encoding, so
// no activated copy is built; logic outside the key cones hashes
// together, and keys that fold to the same structure are equivalent
// without a SAT call. The conflict budget follows
// ProveEquivalentHashedBudget's contract: exhausted means equivalent.
func ProveKeysEquivalentBudget(locked *netlist.Circuit, keyA, keyB []bool, conflictBudget uint64) (bool, []bool, error) {
	return proveHashed(locked, keyA, locked, keyB, conflictBudget)
}

// ProveUnlockedHashed is ProveUnlocked using the hashed encoder, with
// the key bound inside the encoding.
func ProveUnlockedHashed(locked *netlist.Circuit, key []bool, reference *netlist.Circuit) (bool, error) {
	if reference.NumKeys() != 0 {
		return false, fmt.Errorf("miter: reference circuit %q has key inputs", reference.Name)
	}
	eq, _, err := proveHashed(locked, key, reference, nil, 0)
	return eq, err
}
