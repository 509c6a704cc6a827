package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
)

// The smoke test runs every workload briefly, offline, at a fixed seed
// and check count. Run it from this directory with `go test ./...`.

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// exactCounts are per-layer counters that must repeat exactly between
// two runs at the same seed and check count.
var exactCounts = []string{
	"sat.conflicts", "sat.propagations", "sat.solver_calls",
	"constraints.semantic_pairs", "constraints.semantic_pairs_pruned", "constraints.semantic_solver_calls",
	"constraints.lifted_queries", "constraints.lifted_pruned",
	"checkcache.hits", "checkcache.misses", "checkcache.hit_ratio",
	"delta.ops", "dts.nodes", "preproc.bytes_out", "service.response_bytes",
}

func TestMain(m *testing.M) {
	// The corpus workload reads testdata/ relative to the repository root.
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func smokeRun(t *testing.T, name string, trace bool) *result {
	t.Helper()
	res, err := run(context.Background(), options{
		workload: name, seed: 3, checks: 24, setups: 1, trace: trace, traceDir: t.TempDir(),
	}, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s: %d of %d checks failed", name, res.Failed, res.Attempted)
	}
	return res
}

func TestWorkloadsSmoke(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			plain := smokeRun(t, w.Name, false)
			if len(plain.Metrics) != len(spec.EndToEnd) {
				t.Errorf("untraced run reports %d metrics, BENCHMARK.json lists %d", len(plain.Metrics), len(spec.EndToEnd))
			}
			for _, m := range spec.EndToEnd {
				got, ok := plain.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
				if ok && got.Value <= 0 {
					t.Errorf("end-to-end metric %s is %v, want > 0", m.Name, got.Value)
				}
			}

			first := smokeRun(t, w.Name, true)
			if len(first.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced run reports %d metrics, BENCHMARK.json lists %d", len(first.Metrics), len(spec.PerLayer))
			}
			for _, m := range spec.PerLayer {
				if got, ok := first.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if r := first.Metrics["bench.failed_ratio"].Value; r != 0 {
				t.Errorf("failed_ratio %v, want 0", r)
			}

			second := smokeRun(t, w.Name, true)
			for _, name := range exactCounts {
				if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
					t.Errorf("%s differs between two runs at the same seed: %v then %v", name, a, b)
				}
			}
		})
	}
}
