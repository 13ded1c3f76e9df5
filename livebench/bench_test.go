package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The metrics a run prints are the ones BENCHMARK.json declares, with the
// same units and in the same order.
func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to livebench: %v", err)
	}
	var bf struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEndDefs)
	check("per_layer", bf.PerLayer, layerDefs)
	for _, w := range bf.Workloads {
		if _, err := buildSpec(w.Name, 1, 1, 0); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
}

// The same seed gives the same jobs; another seed gives other tags.
func TestSpecIsSeeded(t *testing.T) {
	for _, name := range workloadNames {
		a, err := buildSpec(name, 7, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildSpec(name, 7, 2, 1)
		c, _ := buildSpec(name, 8, 2, 1)
		first := func(s *spec) task { return s.phases[len(s.phases)-1].jobs[0][0][0] }
		if first(a) != first(b) {
			t.Errorf("%s: same seed, different jobs", name)
		}
		if first(a) == first(c) && name != "zipf-vote" {
			t.Errorf("%s: different seeds, same first tasklet", name)
		}
		if a.tasklets() != b.tasklets() {
			t.Errorf("%s: same seed, different sizes", name)
		}
	}
}
