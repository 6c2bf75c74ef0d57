package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const fakeSpec = `{
  "run_seconds": 1,
  "workloads": [{"name": "ingest"}, {"name": "query"}],
  "end_to_end": [
    {"name": "rows_per_s", "better": "higher", "bound": 0.25},
    {"name": "rss_mb", "better": "lower", "bound": 0.1}
  ]
}`

// fakeRun stands in for bench/run.sh: it logs the call to calls.log
// beside the two checkouts, then prints the canned output and exits
// with the canned code of its workload and seed.
const fakeRun = `#!/usr/bin/env bash
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
echo "$(basename "$root") $2 $4 $6 $8" >> "$root/../calls.log"
echo "building" >&2
echo "a table line"
cat "$root/out/$2-$4"
exit "$(cat "$root/out/$2-$4.exit" 2>/dev/null || echo 0)"
`

// fakeTree builds a checkout named name under dir with the fake
// benchmark, every run answering correctly with the given metrics.
func fakeTree(t *testing.T, dir, name string, rowsPerS, rssMB float64) string {
	t.Helper()
	root := filepath.Join(dir, name)
	for _, d := range []string{"bench", "out"} {
		if err := os.MkdirAll(filepath.Join(root, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	writeFile(t, filepath.Join(root, "BENCHMARK.json"), fakeSpec)
	writeFile(t, filepath.Join(root, "bench", "run.sh"), fakeRun)
	for _, w := range []string{"ingest", "query"} {
		for seed := 1; seed <= pairs; seed++ {
			setRun(t, root, w, seed, true, 1000, 0, rowsPerS, rssMB)
		}
	}
	return root
}

func setRun(t *testing.T, root, workload string, seed int, correct bool, attempted, failed int, rowsPerS, rssMB float64) {
	t.Helper()
	line := fmt.Sprintf(`{"correct":%t,"attempted":%d,"failed":%d,"metrics":{"rows_per_s":{"value":%g,"unit":"rows/s"},"rss_mb":{"value":%g,"unit":"MiB"}}}`,
		correct, attempted, failed, rowsPerS, rssMB)
	writeFile(t, filepath.Join(root, "out", fmt.Sprintf("%s-%d", workload, seed)), line+"\n")
}

func writeFile(t *testing.T, path, body string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPairedWithinBound: a change inside every bound passes, the table
// names each workload and metric, and every run saw the benchmark's
// arguments.
func TestPairedWithinBound(t *testing.T) {
	dir := t.TempDir()
	parent := fakeTree(t, dir, "parent", 100, 50)
	change := fakeTree(t, dir, "change", 80, 54) // -20% of 25%, +8% of 10%
	var out strings.Builder
	if err := runPaired(parent, change, &out); err != nil {
		t.Fatalf("change within bounds failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"ingest", "query", "rows_per_s", "rss_mb", "-20.0%", "+8.0%", fmt.Sprintf("0/%d", pairs)} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output lacks %q:\n%s", want, out.String())
		}
	}
	calls, err := os.ReadFile(filepath.Join(dir, "calls.log"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(calls)), "\n")
	if len(lines) != 2*2*pairs {
		t.Fatalf("%d runs, want %d", len(lines), 2*2*pairs)
	}
	for _, l := range lines {
		if !strings.HasSuffix(l, " 1 0") { // --seconds 1 --trace 0
			t.Fatalf("run %q lacks the benchmark's seconds and trace", l)
		}
	}
}

// TestPairedBeyondBound: a change worse than the bound fails, in the
// metric's own direction.
func TestPairedBeyondBound(t *testing.T) {
	for _, tc := range []struct {
		name          string
		rowsPerS, rss float64
		metric        string
	}{
		{"higher is better", 70, 50, "rows_per_s"}, // -30% of 25%
		{"lower is better", 100, 56, "rss_mb"},     // +12% of 10%
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			parent := fakeTree(t, dir, "parent", 100, 50)
			change := fakeTree(t, dir, "change", tc.rowsPerS, tc.rss)
			var out strings.Builder
			err := runPaired(parent, change, &out)
			if err == nil || !strings.Contains(err.Error(), tc.metric) {
				t.Fatalf("err = %v, want a failure on %s\n%s", err, tc.metric, out.String())
			}
			// Better in the metric's direction passes at any size.
			better := fakeTree(t, dir, "better", 1000, 5)
			if err := runPaired(parent, better, &out); err != nil {
				t.Fatalf("a better change failed: %v", err)
			}
		})
	}
}

// TestPairedRunFailures: an incorrect run, a non-zero exit and a larger
// failed share each fail the gate, on either side where it applies.
func TestPairedRunFailures(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(t *testing.T, change string)
		want  string
	}{
		{"incorrect", func(t *testing.T, change string) {
			setRun(t, change, "query", 3, false, 1000, 0, 100, 50)
		}, "correct: false"},
		{"non-zero exit", func(t *testing.T, change string) {
			writeFile(t, filepath.Join(change, "out", "ingest-2.exit"), "1\n")
		}, "exit status 1"},
		{"failed share", func(t *testing.T, change string) {
			setRun(t, change, "ingest", 4, true, 1000, 3, 100, 50)
		}, "failed share"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			parent := fakeTree(t, dir, "parent", 100, 50)
			change := fakeTree(t, dir, "change", 100, 50)
			tc.spoil(t, change)
			var out strings.Builder
			err := runPaired(parent, change, &out)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
	// The same failed share on both sides is no regression.
	dir := t.TempDir()
	parent := fakeTree(t, dir, "parent", 100, 50)
	change := fakeTree(t, dir, "change", 100, 50)
	setRun(t, parent, "ingest", 1, true, 1000, 3, 100, 50)
	setRun(t, change, "ingest", 4, true, 1000, 3, 100, 50)
	var out strings.Builder
	if err := runPaired(parent, change, &out); err != nil {
		t.Fatalf("equal failed shares failed the gate: %v", err)
	}
}

// TestPairedAlternates: pair i runs every workload at seed i, parent
// first in odd pairs and change first in even ones.
func TestPairedAlternates(t *testing.T) {
	dir := t.TempDir()
	parent := fakeTree(t, dir, "parent", 100, 50)
	change := fakeTree(t, dir, "change", 100, 50)
	var out strings.Builder
	if err := runPaired(parent, change, &out); err != nil {
		t.Fatal(err)
	}
	calls, err := os.ReadFile(filepath.Join(dir, "calls.log"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 1; i <= pairs; i++ {
		first, second := "parent", "change"
		if i%2 == 0 {
			first, second = second, first
		}
		for _, w := range []string{"ingest", "query"} {
			want = append(want,
				fmt.Sprintf("%s %s %d 1 0", first, w, i),
				fmt.Sprintf("%s %s %d 1 0", second, w, i))
		}
	}
	if got := strings.TrimSpace(string(calls)); got != strings.Join(want, "\n") {
		t.Fatalf("run order:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}

// TestPairedSkipsBenchmarkChange: when BENCHMARK.json or bench/ differ,
// the gate runs nothing and passes, saying why.
func TestPairedSkipsBenchmarkChange(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(t *testing.T, change string)
	}{
		{"BENCHMARK.json", func(t *testing.T, change string) {
			writeFile(t, filepath.Join(change, "BENCHMARK.json"), strings.Replace(fakeSpec, `"bound": 0.1`, `"bound": 0.2`, 1))
		}},
		{"bench/", func(t *testing.T, change string) {
			writeFile(t, filepath.Join(change, "bench", "README.md"), "new\n")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			parent := fakeTree(t, dir, "parent", 100, 50)
			change := fakeTree(t, dir, "change", 10, 500) // would fail if compared
			tc.edit(t, change)
			var out strings.Builder
			if err := runPaired(parent, change, &out); err != nil {
				t.Fatalf("benchmark change was compared: %v", err)
			}
			if !strings.Contains(out.String(), "benchmark change") {
				t.Fatalf("output: %s", out.String())
			}
			if _, err := os.Stat(filepath.Join(dir, "calls.log")); !os.IsNotExist(err) {
				t.Fatalf("the gate ran the benchmark (stat: %v)", err)
			}
		})
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	if q1, q2, q3 := quartiles([]float64{4, 1, 3, 2}); q1 != 1.25 || q2 != 2.5 || q3 != 3.75 {
		t.Fatalf("quartiles = %v %v %v, want 1.25 2.5 3.75", q1, q2, q3)
	}
}
