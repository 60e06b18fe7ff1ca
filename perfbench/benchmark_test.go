package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// BENCHMARK.json lists exactly the metrics the benchmark prints, in order,
// with the same units, directions and bounds.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []map[string]any `json:"end_to_end"`
		PerLayer  []map[string]any `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark has %d", names, len(workloads))
	}
	check := func(kind string, got []map[string]any, defs []metricDef, bounded bool) {
		var want []map[string]any
		for _, d := range defs {
			m := map[string]any{"name": d.name, "unit": d.unit, "better": d.better}
			if bounded {
				m["bound"] = d.bound
			}
			want = append(want, m)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("BENCHMARK.json %s:\n got %v\nwant %v", kind, got, want)
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}
