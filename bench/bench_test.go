package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestBenchmarkSelf runs every workload at test scale (the 20-branch
// bundle, one rep, short videos) and checks what the benchmark promises:
// every metric BENCHMARK.json declares is printed with its unit, every
// check passes, a traced and an untraced run at one seed agree on the
// simulated metrics, and another seed changes them.
func TestBenchmarkSelf(t *testing.T) {
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	runOnce := func(workload string, seed int64, trace bool) *report {
		t.Helper()
		var buf bytes.Buffer
		o := options{workload: workload, seed: seed, seconds: 1e-3, trace: trace, out: t.TempDir()}
		rep, err := run(o, &testScale, &buf)
		if err != nil {
			t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
		}
		if !rep.res.Correct || rep.res.Failed != 0 || rep.res.Attempted < 1 {
			t.Fatalf("%s seed %d trace %v: checks failed:\n%s", workload, seed, trace, buf.String())
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var printed result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &printed); err != nil {
			t.Fatalf("%s: last line is not the result object: %v", workload, err)
		}
		if !strings.HasPrefix(lines[0], "env: go=") {
			t.Errorf("%s: first line %q is not the environment stamp", workload, lines[0])
		}
		declared := spec.EndToEnd
		if trace {
			declared = spec.PerLayer
		}
		if len(printed.Metrics) != len(declared) {
			t.Errorf("%s trace %v: printed %d metrics, BENCHMARK.json declares %d",
				workload, trace, len(printed.Metrics), len(declared))
		}
		for _, m := range declared {
			if got, ok := printed.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s trace %v: metric %s printed as %+v, want unit %q", workload, trace, m.Name, got, m.Unit)
			}
		}
		return rep
	}
	simulated := func(r *report) map[string]float64 {
		out := map[string]float64{}
		for k, v := range r.e2e {
			if strings.HasPrefix(k, "sim_") || strings.HasPrefix(k, "slo_") || k == "served_frac" {
				out[k] = v
			}
		}
		return out
	}
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			traced := simulated(runOnce(name, 1, true))
			untraced := simulated(runOnce(name, 1, false))
			other := simulated(runOnce(name, 2, false))
			differs := false
			for k, v := range untraced {
				if traced[k] != v {
					t.Errorf("%s: traced run %v, untraced %v", k, traced[k], v)
				}
				differs = differs || other[k] != v
			}
			if !differs {
				t.Errorf("seeds 1 and 2 gave identical simulated metrics %v", untraced)
			}
		})
	}
}
