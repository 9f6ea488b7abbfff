package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// metricEntry is one metric as BENCHMARK.json lists it.
type metricEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchmarkFile mirrors the parts of BENCHMARK.json the code must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricEntry `json:"end_to_end"`
	PerLayer []metricEntry `json:"per_layer"`
}

// TestCatalogueMatchesBenchmarkJSON keeps the workloads and the metric
// names, units and directions in step with BENCHMARK.json.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, code []metricDef, file []metricEntry) {
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(file), len(code))
		}
		for i, m := range file {
			if c := code[i]; m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", kind, i, m, c)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
}
