package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// pairs is how many parent/change pairs the paired mode runs per
// workload: about 17 minutes for the four workloads at BENCHMARK.json's
// run_seconds on a 2-vCPU host. Fewer pairs let run-to-run noise in the
// millisecond set-ups fail an unchanged program: resampling 24 runs of
// one build per workload, 4 pairs fail ~15% of gates on setup_s, 8
// pairs ~4%.
const pairs = 8

// benchSpec is the part of BENCHMARK.json the paired mode reads.
type benchSpec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runLine is the JSON object amsload prints as its last stdout line in
// driver mode (bench/README.md).
type runLine struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !(s.RunSeconds > 0) || len(s.Workloads) == 0 || len(s.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: want run_seconds > 0, workloads and end_to_end metrics", path)
	}
	for _, m := range s.EndToEnd {
		if m.Better != "higher" && m.Better != "lower" {
			return nil, fmt.Errorf("%s: metric %s: better is %q, want higher or lower", path, m.Name, m.Better)
		}
	}
	return &s, nil
}

// benchFiles maps every file of a tree's benchmark (BENCHMARK.json and
// everything under bench/) to its contents.
func benchFiles(root string) (map[string]string, error) {
	files := map[string]string{}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	files["BENCHMARK.json"] = string(raw)
	err = filepath.WalkDir(filepath.Join(root, "bench"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		files[filepath.ToSlash(rel)] = string(raw)
		return err
	})
	return files, err
}

// sameBenchmark reports whether both trees carry byte-identical
// benchmarks; runs of two different benchmarks share no baseline.
func sameBenchmark(parent, change string) (bool, error) {
	pf, err := benchFiles(parent)
	if err != nil {
		return false, fmt.Errorf("parent: %w", err)
	}
	cf, err := benchFiles(change)
	if err != nil {
		return false, fmt.Errorf("change: %w", err)
	}
	if len(pf) != len(cf) {
		return false, nil
	}
	for name, body := range pf {
		if other, ok := cf[name]; !ok || other != body {
			return false, nil
		}
	}
	return true, nil
}

// runOnce runs one workload in one tree through its bench/run.sh and
// parses the result line. A non-zero exit or an incorrect run is an
// error.
func runOnce(dir, workload string, seed int, seconds float64) (*runLine, error) {
	cmd := exec.Command("bash", filepath.Join(dir, "bench", "run.sh"),
		"--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	where := fmt.Sprintf("%s --workload %s --seed %d", dir, workload, seed)
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %v\n%s%s", where, err, tail(stdout.String()), tail(stderr.String()))
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: last stdout line: %w", where, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s: correct: false\n%s", where, tail(stdout.String()))
	}
	return &res, nil
}

// tail keeps the last lines of a command's output for an error message.
func tail(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return strings.Join(lines, "\n") + "\n"
}

// runPaired is the acceptance rule of BENCHMARK.json: amsload in both
// trees, pairs alternating which side runs first, each end-to-end
// metric's change median no worse than the parent median by more than
// its bound, and no larger share of failed operations.
func runPaired(parent, change string, out io.Writer) error {
	spec, err := loadSpec(filepath.Join(change, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	same, err := sameBenchmark(parent, change)
	if err != nil {
		return err
	}
	if !same {
		fmt.Fprintln(out, "benchgate: bench/ or BENCHMARK.json differ between parent and change: a benchmark change, so nothing is compared")
		return nil
	}
	dirs := [2]string{parent, change}
	// runs[w][side][i] is pair i's result for workload w (side 0 parent).
	runs := make([][2][]*runLine, len(spec.Workloads))
	for i := 1; i <= pairs; i++ {
		for w, wl := range spec.Workloads {
			order := []int{0, 1}
			if i%2 == 0 {
				order = []int{1, 0}
			}
			for _, side := range order {
				res, err := runOnce(dirs[side], wl.Name, i, spec.RunSeconds)
				if err != nil {
					return err
				}
				runs[w][side] = append(runs[w][side], res)
				line, _ := json.Marshal(res)
				fmt.Fprintf(out, "pair %d %-13s %-6s %s\n", i, wl.Name, [2]string{"parent", "change"}[side], line)
			}
		}
	}

	var failures []string
	fmt.Fprintf(out, "\n%-13s %-17s %11s %-23s %11s %8s %5s %6s\n",
		"workload", "metric", "parent", "  parent q1..q3", "change", "Δ", "wins", "bound")
	for w, wl := range spec.Workloads {
		par, chg := runs[w][0], runs[w][1]
		pShare, cShare := failedShare(par), failedShare(chg)
		if cShare > pShare {
			failures = append(failures, fmt.Sprintf("%s: failed share %.4g at the change > %.4g at the parent", wl.Name, cShare, pShare))
		}
		for _, m := range spec.EndToEnd {
			pv, err := values(par, m.Name)
			if err != nil {
				return fmt.Errorf("parent %s: %w", wl.Name, err)
			}
			cv, err := values(chg, m.Name)
			if err != nil {
				return fmt.Errorf("change %s: %w", wl.Name, err)
			}
			q1, pMed, q3 := quartiles(pv)
			_, cMed, _ := quartiles(cv)
			delta := relDelta(cMed, pMed)
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			wins := 0
			for i := range pv {
				if (m.Better == "higher" && cv[i] > pv[i]) || (m.Better == "lower" && cv[i] < pv[i]) {
					wins++
				}
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "FAIL"
				failures = append(failures, fmt.Sprintf("%s %s: change median %.4g is %.1f%% worse than parent %.4g (bound %.0f%%)",
					wl.Name, m.Name, cMed, 100*worse, pMed, 100*m.Bound))
			}
			fmt.Fprintf(out, "%-13s %-17s %11.4g   %-21s %11.4g %+7.1f%% %5s %5.0f%% %s\n",
				wl.Name, m.Name, pMed, fmt.Sprintf("%.4g..%.4g", q1, q3), cMed, 100*delta,
				fmt.Sprintf("%d/%d", wins, len(pv)), 100*m.Bound, verdict)
		}
		fmt.Fprintf(out, "%-13s %-17s %11.4g %-23s %11.4g\n", wl.Name, "failed share", pShare, "", cShare)
	}
	if len(failures) > 0 {
		return fmt.Errorf("paired gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Fprintf(out, "benchgate: %d pairs per workload, every end-to-end metric within its bound\n", pairs)
	return nil
}

// failedShare is Σ failed ÷ Σ attempted over a side's runs.
func failedShare(runs []*runLine) float64 {
	var failed, attempted int64
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// values collects one metric from a side's runs, in pair order.
func values(runs []*runLine, metric string) ([]float64, error) {
	vs := make([]float64, len(runs))
	for i, r := range runs {
		m, ok := r.Metrics[metric]
		if !ok {
			return nil, fmt.Errorf("run %d has no metric %s", i+1, metric)
		}
		vs[i] = m.Value
	}
	return vs, nil
}

// relDelta is (change − parent) ÷ parent, 0 when both are 0.
func relDelta(change, parent float64) float64 {
	if parent == 0 {
		if change == 0 {
			return 0
		}
		return math.Copysign(math.Inf(1), change)
	}
	return (change - parent) / math.Abs(parent)
}

// quartiles is Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), amsload's own rule; the middle one is the median.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
