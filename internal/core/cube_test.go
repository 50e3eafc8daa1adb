package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/events"
	"repro/internal/lock"
	"repro/internal/netlist"
	"repro/internal/synth"
	"repro/internal/telemetry"
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

// satpathInstance locks a c432-profile host with chain; aligned selects
// the paper's regime (identical key-gate types in both CAS blocks),
// otherwise both blocks draw their own.
func satpathInstance(t *testing.T, chain string, aligned bool, seed int64) (*netlist.Circuit, *BlockLayout) {
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
	layout, err := DiscoverLayout(locked.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	return locked.Circuit, layout
}

// everyOther returns a set holding every other pattern of s.
func everyOther(t *testing.T, s *DIPSet) *DIPSet {
	t.Helper()
	out, err := NewDIPSet(s.BlockWidth())
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	s.ForEach(func(p uint64) bool {
		if i%2 == 0 {
			out.Add(p)
		}
		i++
		return true
	})
	return out
}

// TestCubeExtractionMatchesLegacyAndSim is the cube enumeration's
// differential test on the SAT-path shapes, in both key-gate regimes
// and over several seeds: the cube-blocking engine, a portfolio of
// them, the point-blocking legacy encoding and the simulation extractor
// return bit-identical DIP sets for the first Lemma-1 hypothesis and a
// random assignment; an enumeration interrupted after a few cubes and
// resumed from its partial set, and one seeded with every other DIP,
// both end with the same set as the uninterrupted run.
func TestCubeExtractionMatchesLegacyAndSim(t *testing.T) {
	for ci, chain := range satpathChains {
		for _, aligned := range []bool{true, false} {
			seed := int64(11 + 7*ci)
			if aligned {
				seed++
			}
			locked, layout := satpathInstance(t, chain, aligned, seed)
			newSAT := func(legacy bool, portfolio int) *SATExtractor {
				ext, err := NewSATExtractor(locked, layout)
				if err != nil {
					t.Fatal(err)
				}
				ext.SetLegacyEncoding(legacy)
				ext.SetPortfolio(portfolio)
				return ext
			}
			cubes, legacy, port := newSAT(false, 0), newSAT(true, 0), newSAT(false, 3)
			sim, err := NewSimExtractor(locked, layout, seed)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			nk := locked.NumKeys()
			random := PairAssign{A: make([]bool, nk), B: make([]bool, nk)}
			for i := 0; i < nk; i++ {
				random.A[i], random.B[i] = rng.Intn(2) == 1, rng.Intn(2) == 1
			}
			for ai, assign := range []PairAssign{lemma1Assign(locked, layout), random} {
				want, err := sim.DIPs(assign)
				if err != nil {
					t.Fatal(err)
				}
				exts := map[string]*SATExtractor{"cube": cubes, "legacy": legacy, "portfolio": port}
				if ai > 0 {
					// The point-blocking reference solves once per DIP;
					// one assignment per instance keeps its share small.
					delete(exts, "legacy")
				}
				for name, ext := range exts {
					got, err := ext.DIPs(assign)
					if err != nil {
						t.Fatalf("%s aligned=%v %s: %v", chain, aligned, name, err)
					}
					if !got.Equal(want) {
						t.Fatalf("%s aligned=%v: %s extractor %d DIPs, sim %d, sets differ",
							chain, aligned, name, got.Count(), want.Count())
					}
				}
				if ai > 0 {
					continue // resumes are checked on the Lemma-1 hypothesis
				}

				// Interrupt after three cubes, then resume from the partial
				// set on a fresh extractor.
				ctx, cancel := context.WithCancel(context.Background())
				cut := newSAT(false, 0)
				cut.SetContext(ctx)
				fired := 0
				cut.SetProgress(func(_ *DIPSet, complete bool) {
					if fired++; fired == 3 {
						cancel()
					}
				})
				partial, err := cut.DIPs(assign)
				cancel()
				if err == nil && partial.Count() < want.Count() {
					t.Fatalf("%s aligned=%v: incomplete set without an error", chain, aligned)
				}
				for _, r := range []struct {
					portfolio int
					seed      *DIPSet
				}{{0, partial}, {0, everyOther(t, want)}, {3, partial}} {
					resumed := newSAT(false, r.portfolio)
					resumed.SeedDIPs(r.seed)
					got, err := resumed.DIPs(assign)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want) {
						t.Fatalf("%s aligned=%v portfolio=%d: resumed from %d DIPs, ended with %d, want %d",
							chain, aligned, r.portfolio, r.seed.Count(), got.Count(), want.Count())
					}
				}
			}
		}
	}
}

// scriptedBackend replays a fixed cube list as an enumeration; only the
// methods SATExtractor.DIPs reaches are implemented.
type scriptedBackend struct {
	engine.Backend
	cubes [][2]uint64
}

func (b *scriptedBackend) SetContext(context.Context)       {}
func (b *scriptedBackend) SetTelemetry(*telemetry.Registry) {}
func (b *scriptedBackend) SetEvents(*events.Bus)            {}
func (b *scriptedBackend) SetPhase(string)                  {}
func (b *scriptedBackend) EnumerateDIPsSeeded(_, _ []bool, _ func(func(uint64) bool), visit func(pat, free uint64) bool) error {
	for _, c := range b.cubes {
		if !visit(c[0], c[1]) {
			return nil
		}
	}
	return nil
}

// TestSATExtractorCubeBookkeeping drives SATExtractor.DIPs with scripted
// cubes: overlapping cubes merge into the one DIPSet, the progress hook
// fires once per cube, and a model inside an earlier cube is still the
// duplicate-pattern error.
func TestSATExtractorCubeBookkeeping(t *testing.T) {
	locked, layout := satpathInstance(t, satpathChains[0], true, 1)
	run := func(cubes [][2]uint64) (*DIPSet, int, error) {
		ext, err := NewSATExtractor(locked, layout)
		if err != nil {
			t.Fatal(err)
		}
		ext.SetBackend(&scriptedBackend{cubes: cubes})
		calls := 0
		ext.SetProgress(func(_ *DIPSet, complete bool) {
			if !complete {
				calls++
			}
		})
		set, err := ext.DIPs(lemma1Assign(locked, layout))
		return set, calls, err
	}
	// The first cube covers patterns 0-7; the second covers 4 patterns,
	// 0b0000 and 0b0010 of them already in the first.
	set, calls, err := run([][2]uint64{{0, 0b111}, {0b1000, 0b1010}})
	if err != nil {
		t.Fatal(err)
	}
	if set.Count() != 10 || calls != 2 {
		t.Fatalf("%d DIPs from %d progress calls, want 10 from 2", set.Count(), calls)
	}
	for _, p := range []uint64{0, 7, 8, 10, 0b1000, 0b0010} {
		if !set.Contains(p) {
			t.Fatalf("pattern %b missing", p)
		}
	}
	_, _, err = run([][2]uint64{{0, 0b111}, {0b101, 0}})
	if err == nil || !strings.Contains(err.Error(), "duplicate pattern") {
		t.Fatalf("model inside an earlier cube: err %v, want the duplicate-pattern error", err)
	}
}
