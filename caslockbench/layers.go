package main

import (
	"math/rand"
	"time"

	"repro/internal/netlist"
)

// attackLayers derives the per-layer metrics of an attack workload's
// traced batches: self times from the span tree, work counts from the
// program's counters and the benchmark's oracle spans, kernel speed
// from a timed run of the compiled netlist.
func attackLayers(r *run, locked *netlist.Circuit) map[string]float64 {
	rec := r.rec
	ops := float64(r.tracedOps)
	m := make(map[string]float64)
	self := make(map[string]float64) // layer → ns
	var opNs, instNs, instN, calibNs, oracleNs, oraclePatterns, oracleCalls float64
	var verifyPatterns, deltas, engEncodeNs, engEnumNs, engDistNs, engSessionNs float64
	var extractNs, extractDIPs, simExtractNs, satDIPs float64
	for _, n := range rec.build() {
		dur := float64(n.end - n.start)
		if l := layerOf(n.name); l != "" {
			self[l] += float64(n.self)
		}
		switch n.name {
		case "op":
			opNs += dur
		case "instance":
			instNs += dur
			instN++
		case "calibrate":
			calibNs += dur
		case "oracle":
			oracleNs += dur
			oraclePatterns += float64(n.patterns)
			oracleCalls++
			if n.phase == "verify" {
				verifyPatterns += float64(n.patterns)
			}
		case "algo1":
			deltas += argInt(n.span, "deltas")
		case "extract":
			extractNs += dur
			extractDIPs += argInt(n.span, "dips")
			if n.args["engine"] == "sim" {
				simExtractNs += dur
			} else {
				satDIPs += argInt(n.span, "dips")
			}
		case "engine_encode", "engine_compact", "portfolio_encode":
			engEncodeNs += dur
		case "engine_enumerate":
			engEnumNs += dur
			engSessionNs += dur
		case "engine_distinguish":
			engDistNs += dur
			engSessionNs += dur
		case "engine_session", "engine_witnesses", "engine_sensitize":
			engSessionNs += dur
		}
	}
	var simPatterns float64
	for _, s := range rec.aside {
		if s.name == "shard" {
			simPatterns += 64 * argInt(s, "batches")
		}
	}
	c := rec.ctr
	accounted := 0.0
	for _, ns := range self {
		accounted += ns
	}
	accounted -= self["instance"] // set-up, outside every op

	m["instance.build_ms"] = ratio(instNs/1e6, instN)
	m["crossover.calibrate_ms"] = ratio(calibNs/1e6, ops)
	m["crossover.sat_share"] = ratio(c[`crossover_selected_total{engine="sat"}`],
		c[`crossover_selected_total{engine="sat"}`]+c[`crossover_selected_total{engine="sim"}`])
	m["enumerate.self_s"] = ratio(self["enumerate"]/1e9, ops)
	m["enumerate.dips_per_s"] = ratio(extractDIPs, extractNs/1e9)
	m["enumerate.patterns_per_s"] = ratio(simPatterns, simExtractNs/1e9)
	for k, v := range kernelNs(locked) {
		m[k] = v
	}
	m["go.alloc_mb_per_op"] = ratio(float64(r.alloc)/(1<<20), ops)
	m["go.gc_pause_ms"] = ratio(float64(r.gcPause)/1e6, ops)
	m["decode.self_ms"] = ratio(self["decode"]/1e6, ops)
	m["decode.candidates_per_op"] = ratio(deltas, ops)
	m["algo1.self_ms"] = ratio(self["algo1"]/1e6, ops)
	m["algo2.self_ms"] = ratio(self["algo2"]/1e6, ops)
	m["algo2.calibrations_per_op"] = ratio(c["attack_calibrations_total"], ops)
	m["verify.self_ms"] = ratio(self["verify"]/1e6, ops)
	m["verify.candidates_per_op"] = ratio(c["attack_candidates_total"], ops)
	m["verify.oracle_queries_per_op"] = ratio(verifyPatterns, ops)
	m["oracle.calls_per_op"] = ratio(oracleCalls, ops)
	m["oracle.queries_per_op"] = ratio(oraclePatterns, ops)
	m["oracle.ns_per_query"] = ratio(oracleNs, oraclePatterns)
	m["engine.encode_ms"] = ratio(engEncodeNs/1e6, ops)
	m["engine.enumerate_s"] = ratio(engEnumNs/1e9, ops)
	m["engine.distinguish_ms"] = ratio(engDistNs/1e6, ops)
	m["engine.blocking_pushed_per_op"] = ratio(c["engine_blocking_pushed_total"], ops)
	m["engine.distinguish_unknown"] = c["engine_distinguish_unknown_total"]
	m["sat.propagations_per_s"] = ratio(c["sat_propagations_total"], engSessionNs/1e9)
	m["sat.conflicts_per_dip"] = ratio(c["sat_conflicts_total"], satDIPs)
	m["sat.solve_calls_per_op"] = ratio(c["sat_solve_calls_total"], ops)
	m["prove.ms_per_op"] = ratio(self["prove"]/1e6, ops)
	m["trace.overhead_s"] = median(r.tracedWalls) - median(r.walls)
	m["trace.accounted_share"] = ratio(accounted, opNs)
	return m
}

// ratio is a/b, or 0 when nothing was measured.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// kernelNs times the compiled-netlist kernel at 64, 256 and 512 lanes
// on a workload's locked netlist: nanoseconds per instruction per
// 64-bit word.
func kernelNs(c *netlist.Circuit) map[string]float64 {
	out := make(map[string]float64)
	prog, err := netlist.CompileCircuit(c)
	if err != nil || prog.Len() == 0 {
		return out
	}
	rng := rand.New(rand.NewSource(1))
	for _, k := range []struct {
		name  string
		words int
		exec  func([]uint64)
	}{
		{"kernel.ns_per_gate_word.64", 1, prog.Exec},
		{"kernel.ns_per_gate_word.256", 4, prog.Exec256},
		{"kernel.ns_per_gate_word.512", 8, prog.Exec512},
	} {
		regs := make([]uint64, prog.NumRegs()*k.words)
		for i := range regs {
			regs[i] = rng.Uint64()
		}
		// Repeat until 50 ms have passed; report the fastest of the
		// timed rounds, the kernel's cost without scheduler noise.
		best := time.Duration(1 << 62)
		reps := 1
		for spent := time.Duration(0); spent < 50*time.Millisecond; {
			t := time.Now()
			for i := 0; i < reps; i++ {
				k.exec(regs)
			}
			d := time.Since(t)
			spent += d
			if per := d / time.Duration(reps); per < best {
				best = per
			}
			if d < time.Millisecond {
				reps *= 2
			}
		}
		out[k.name] = float64(best) / float64(prog.Len()*k.words)
	}
	return out
}
