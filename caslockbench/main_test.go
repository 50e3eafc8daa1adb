package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// The benchmark's self-test: every workload runs at its smallest size
// (one batch; a traced run needs one untraced and one traced batch) and
// must emit every metric BENCHMARK.json names, with its unit, and a
// planted wrong key must be counted as a failure.

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// result is the decoded last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func smallest(t *testing.T, name string, trace, flip bool) result {
	t.Helper()
	r := &run{workload: name, seed: 1, trace: trace, flip: flip}
	if trace {
		r.rec = newRecorder()
	}
	if err := workloads[name]().measure(r); err != nil {
		t.Fatal(err)
	}
	_, line := r.report()
	var res result
	if err := json.Unmarshal(line, &res); err != nil {
		t.Fatal(err)
	}
	return res
}

func checkMetrics(t *testing.T, got map[string]metricValue, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(got), len(want))
	}
	for _, m := range want {
		v, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", m.Name)
		case v.Unit != m.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, v.Unit, m.Unit)
		}
	}
}

func TestMetricTablesMatchSpec(t *testing.T) {
	s := loadSpec(t)
	for i, d := range endToEnd {
		if i >= len(s.EndToEnd) || s.EndToEnd[i] != (specMetric{d.name, d.unit}) {
			t.Errorf("end-to-end metric %d: benchmark has %v, BENCHMARK.json differs", i, d)
		}
	}
	for i, d := range perLayer {
		if i >= len(s.PerLayer) || s.PerLayer[i] != (specMetric{d.name, d.unit}) {
			t.Errorf("per-layer metric %d: benchmark has %v, BENCHMARK.json differs", i, d)
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs every workload the benchmark
// has; -short keeps to those BENCHMARK.json names. Only those must run
// clean: tablei32_indep fails on some rows by design.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	s := loadSpec(t)
	inSpec := make(map[string]bool)
	for _, w := range s.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, the benchmark has none", w.Name)
		}
		inSpec[w.Name] = true
	}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if testing.Short() && !inSpec[name] {
			continue
		}
		t.Run(name, func(t *testing.T) {
			res := smallest(t, name, false, false)
			if res.Attempted == 0 || inSpec[name] && (!res.Correct || res.Failed != 0) {
				t.Errorf("untraced run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, res.Metrics, s.EndToEnd)
			for metric, m := range res.Metrics {
				if inSpec[name] && m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", metric, m.Value)
				}
			}

			res = smallest(t, name, true, false)
			checkMetrics(t, res.Metrics, s.PerLayer)
			if a := res.Metrics["trace.accounted_share"].Value; a < accountedTolerance || a > 1 {
				t.Errorf("layer self times cover %.3f of op latency, want [%.2f, 1]", a, accountedTolerance)
			}
		})
	}
}

func TestFlippedKeyBitIsAFailure(t *testing.T) {
	for _, name := range []string{"tablei32_paper", "service_mixed"} {
		t.Run(name, func(t *testing.T) {
			res := smallest(t, name, false, true)
			if res.Correct || res.Failed != res.Attempted || res.Attempted == 0 {
				t.Errorf("flipped keys: correct=%v attempted=%d failed=%d, want every op failed and correct=false",
					res.Correct, res.Attempted, res.Failed)
			}
		})
	}
}
