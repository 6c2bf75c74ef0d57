package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// smokeScale shrinks every fixed part of a run so that each workload
// finishes in about a second.
var smokeScale = scale{
	rotation:    16,
	preload:     8192,
	chainRows:   2048,
	trickleRows: 2048,
	microCalls:  5,
	setupRounds: 2,
}

// benchmarkFile is the part of BENCHMARK.json the binary's tables must
// agree with.
type benchmarkFile struct {
	Workloads []workloadDef `json:"workloads"`
	EndToEnd  []metricDef   `json:"end_to_end"`
	PerLayer  []metricDef   `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTablesMatchBenchmarkFile(t *testing.T) {
	b := loadBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the binary %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), binary %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, e2eMetrics) {
		t.Errorf("end_to_end differs:\n file   %v\n binary %v", b.EndToEnd, e2eMetrics)
	}
	if !reflect.DeepEqual(b.PerLayer, layerMetrics) {
		t.Errorf("per_layer differs:\n file   %v\n binary %v", b.PerLayer, layerMetrics)
	}
}

// TestWorkloadsSmoke runs every workload at smoke scale, untraced and
// traced, in this process: the output checks must pass and the result
// line must carry every metric BENCHMARK.json declares.
func TestWorkloadsSmoke(t *testing.T) {
	b := loadBenchmarkFile(t)
	inProcess := func(_ context.Context, o options, w workloadDef, traced bool) (*result, error) {
		return runWorkload(w, o.seed, o.duration(), traced, t.TempDir(), t.TempDir(), smokeScale)
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			for trace, defs := range [][]metricDef{b.EndToEnd, b.PerLayer} {
				o := options{seed: 2, seconds: 0.3, trace: trace}
				res, err := measureWith(context.Background(), o, w, inProcess)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range res.Checks {
					if !c.OK {
						t.Errorf("trace %d: check %s failed: %s", trace, c.Name, c.Detail)
					}
				}
				if !res.correct() || res.Attempted == 0 || res.Failed != 0 {
					t.Errorf("trace %d: correct %v attempted %d failed %d", trace, res.correct(), res.Attempted, res.Failed)
				}
				line, err := contractLine(res, defs)
				if err != nil {
					t.Fatal(err)
				}
				var out struct {
					Metrics map[string]metricValue `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(line), &out); err != nil {
					t.Fatal(err)
				}
				for _, d := range defs {
					if _, ok := out.Metrics[d.Name]; !ok {
						t.Errorf("trace %d: metric %s not emitted", trace, d.Name)
					}
				}
				if trace == 0 {
					for _, d := range defs {
						if v, ok := res.Metrics[d.Name]; !ok || v <= 0 {
							t.Errorf("end-to-end metric %s not measured (%v)", d.Name, v)
						}
					}
				}
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--trace", "2"},
		{"--seconds", "0"},
		{"--bogus"},
	} {
		if code := amsload(args); code != 1 {
			t.Errorf("amsload %v exited %d, want 1", args, code)
		}
	}
}
