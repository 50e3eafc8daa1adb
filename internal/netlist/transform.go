package netlist

import "fmt"

// Clone returns a deep copy of the circuit.
func (c *Circuit) Clone() *Circuit {
	out := New(c.Name)
	out.gates = make([]Gate, len(c.gates))
	for i, g := range c.gates {
		out.gates[i] = Gate{Type: g.Type, Name: g.Name, Fanin: append([]ID(nil), g.Fanin...)}
	}
	out.names = make(map[string]ID, len(c.names))
	for k, v := range c.names {
		out.names[k] = v
	}
	out.inputs = append([]ID(nil), c.inputs...)
	out.keys = append([]ID(nil), c.keys...)
	out.outputs = append([]ID(nil), c.outputs...)
	return out
}

// ImportOptions controls how Import splices one circuit into another.
type ImportOptions struct {
	// Prefix is prepended to every imported gate name to avoid clashes.
	Prefix string
	// InputMap gives, for each primary input of the source (by position),
	// the gate in the destination that drives it. Required: one entry per
	// source input.
	InputMap []ID
	// ImportKeysAsKeys, when true, re-declares the source's key inputs as
	// key inputs of the destination (appended to its key list, in order).
	// When false the source must have no key inputs.
	ImportKeysAsKeys bool
}

// Import splices a copy of src into c. Source primary inputs are replaced
// by the driver gates named in opts.InputMap; all other gates are copied
// with the given name prefix. It returns the destination IDs of the
// source's outputs, in the source's output order. Source output markings
// are not propagated to c's output list (callers decide what to expose).
func (c *Circuit) Import(src *Circuit, opts ImportOptions) ([]ID, error) {
	if len(opts.InputMap) != src.NumInputs() {
		return nil, fmt.Errorf("netlist: Import: InputMap has %d entries, source has %d inputs",
			len(opts.InputMap), src.NumInputs())
	}
	for _, id := range opts.InputMap {
		if id < 0 || int(id) >= len(c.gates) {
			return nil, fmt.Errorf("netlist: Import: InputMap references missing gate %d", id)
		}
	}
	if !opts.ImportKeysAsKeys && src.NumKeys() > 0 {
		return nil, fmt.Errorf("netlist: Import: source has %d key inputs but ImportKeysAsKeys is false", src.NumKeys())
	}
	order, err := src.TopoOrder()
	if err != nil {
		return nil, err
	}
	remap := make([]ID, src.NumGates())
	for i := range remap {
		remap[i] = InvalidID
	}
	for i, id := range src.inputs {
		remap[id] = opts.InputMap[i]
	}
	for _, id := range src.keys {
		kid, err := c.AddKey(opts.Prefix + src.gates[id].Name)
		if err != nil {
			return nil, err
		}
		remap[id] = kid
	}
	for _, id := range order {
		g := &src.gates[id]
		if g.Type == Input {
			if remap[id] == InvalidID {
				return nil, fmt.Errorf("netlist: Import: source input gate %q is neither a primary input nor a key", g.Name)
			}
			continue
		}
		fanin := make([]ID, len(g.Fanin))
		for i, f := range g.Fanin {
			fanin[i] = remap[f]
		}
		nid, err := c.AddGate(g.Type, opts.Prefix+g.Name, fanin...)
		if err != nil {
			return nil, err
		}
		remap[id] = nid
	}
	outs := make([]ID, src.NumOutputs())
	for i, o := range src.outputs {
		outs[i] = remap[o]
	}
	return outs, nil
}

// ExtractCone returns a new circuit computing only the logic in the
// transitive fanin of the selected outputs. Inputs/keys that do not feed
// the cone are dropped; the remaining ones keep their relative order and
// names. The cone's outputs are the given roots, in order.
func (c *Circuit) ExtractCone(name string, roots ...ID) (*Circuit, error) {
	for _, r := range roots {
		if r < 0 || int(r) >= len(c.gates) {
			return nil, fmt.Errorf("netlist: ExtractCone: missing gate %d", r)
		}
	}
	mask := c.TransitiveFanin(roots...)
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	out := New(name)
	remap := make([]ID, len(c.gates))
	for i := range remap {
		remap[i] = InvalidID
	}
	// Declare surviving inputs/keys first to preserve ordering.
	for _, id := range c.inputs {
		if mask[id] {
			remap[id] = out.MustAddInput(c.gates[id].Name)
		}
	}
	for _, id := range c.keys {
		if mask[id] {
			remap[id] = out.MustAddKey(c.gates[id].Name)
		}
	}
	for _, id := range order {
		if !mask[id] {
			continue
		}
		g := &c.gates[id]
		if g.Type == Input {
			if remap[id] == InvalidID {
				// Should be unreachable given Validate's invariant.
				return nil, fmt.Errorf("netlist: ExtractCone: unregistered input %q", g.Name)
			}
			continue
		}
		fanin := make([]ID, len(g.Fanin))
		for i, f := range g.Fanin {
			fanin[i] = remap[f]
		}
		nid, err := out.AddGate(g.Type, g.Name, fanin...)
		if err != nil {
			return nil, err
		}
		remap[id] = nid
	}
	for _, r := range roots {
		if err := out.MarkOutput(remap[r]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Stats summarizes the structural composition of a circuit.
type Stats struct {
	Inputs, Keys, Outputs int
	GatesByType           map[GateType]int
	LogicGates            int // gates excluding inputs and constants
	Depth                 int
}

// ComputeStats gathers structural statistics. Fails only on cyclic
// circuits.
func (c *Circuit) ComputeStats() (Stats, error) {
	s := Stats{
		Inputs:      c.NumInputs(),
		Keys:        c.NumKeys(),
		Outputs:     c.NumOutputs(),
		GatesByType: make(map[GateType]int),
	}
	for _, g := range c.gates {
		s.GatesByType[g.Type]++
		switch g.Type {
		case Input, Const0, Const1:
		default:
			s.LogicGates++
		}
	}
	d, err := c.Depth()
	if err != nil {
		return Stats{}, err
	}
	s.Depth = d
	return s, nil
}

// BindKeys returns a key-free copy of c, named name, with every key
// input replaced by a constant driver carrying the corresponding bit of
// key (in c's key order). Inputs, gate order and outputs are preserved.
func (c *Circuit) BindKeys(name string, key []bool) (*Circuit, error) {
	if len(key) != len(c.keys) {
		return nil, fmt.Errorf("netlist: BindKeys: key length %d, circuit has %d key inputs", len(key), len(c.keys))
	}
	out := New(name)
	remap := make([]ID, len(c.gates))
	for i := range remap {
		remap[i] = InvalidID
	}
	for _, id := range c.inputs {
		remap[id] = out.MustAddInput(c.gates[id].Name)
	}
	for i, id := range c.keys {
		typ := Const0
		if key[i] {
			typ = Const1
		}
		kid, err := out.AddGate(typ, c.gates[id].Name)
		if err != nil {
			return nil, err
		}
		remap[id] = kid
	}
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	for _, id := range order {
		g := &c.gates[id]
		if g.Type == Input {
			if remap[id] == InvalidID {
				return nil, fmt.Errorf("netlist: BindKeys: unregistered input %q", g.Name)
			}
			continue
		}
		fanin := make([]ID, len(g.Fanin))
		for j, f := range g.Fanin {
			fanin[j] = remap[f]
		}
		nid, err := out.AddGate(g.Type, g.Name, fanin...)
		if err != nil {
			return nil, err
		}
		remap[id] = nid
	}
	for _, o := range c.outputs {
		if err := out.MarkOutput(remap[o]); err != nil {
			return nil, err
		}
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}
