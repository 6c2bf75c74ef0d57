// Command benchgate is CI's perf gate. It has two modes.
//
// The paired mode (-parent DIR -change DIR) is the project's acceptance
// rule for performance: the end-to-end benchmark that BENCHMARK.json
// declares (bench/run.sh, amsload), run in both checkouts. For each of
// a fixed number of pairs and each workload it runs
//
//	bash DIR/bench/run.sh --workload W --seed i --seconds <run_seconds> --trace 0
//
// in both trees, alternating which side runs first, and fails on a
// non-zero exit, on "correct": false, on a larger share of failed
// operations at the change, or when any end-to-end metric's change
// median is worse than the parent median by more than the metric's
// bound in BENCHMARK.json. It prints both medians, the parent's
// quartiles, the change in percent and how many pairs the change won.
// When bench/ or BENCHMARK.json differ between the trees the change is a
// benchmark change: the old and new programs share no baseline, so the
// gate says so and compares nothing.
//
// The baseline mode (-bench FILE -baseline FILE) compares a freshly
// measured in-process experiment (amsbench ... -json) against its
// committed baseline and fails when the gated ratio regressed beyond the
// tolerance. It covers what amsload does not measure:
//
//   - fastjoin (BENCH_fastjoin.json): the fast join signature's streamed
//     update cost, normalized as fast_ns_per_update ÷ flat_ns_per_update;
//   - wireingest (BENCH_wire.json): end-to-end streaming ingest over
//     amswire, normalized as wire_ns_per_row ÷ http_ns_per_row at 4
//     concurrent clients (acceptance: wire at least 3x HTTP's rows/sec);
//   - coordserve (BENCH_coord.json): the coordinator daemon's cached
//     join serving, normalized as cached_ns_per_query ÷
//     pull_ns_per_query at 4 concurrent clients (acceptance: cached at
//     least 10x the per-query pull path's estimates/sec).
//
// The file's "experiment" field selects the gate; bench and baseline
// must agree on it.
//
// Two metrics:
//
//   - normalized (default): the fast path ÷ the slow reference path,
//     measured in the SAME process on the SAME machine. The reference
//     loop acts as a built-in machine-speed probe, so the ratio cancels
//     out runner-hardware variance that would make raw nanoseconds flap
//     across CI hosts;
//   - absolute (-metric absolute): the raw fast-path nanoseconds, for
//     like-for-like machines (e.g. a dedicated perf box).
//
// Usage:
//
//	benchgate -parent ../parent -change .
//	benchgate -bench BENCH_fastjoin.json -baseline BENCH_fastjoin.baseline.json [-max-regress 0.25]
//	benchgate -bench BENCH_wire.json -baseline BENCH_wire.baseline.json [-max-regress 0.5]
//	benchgate -bench BENCH_coord.json -baseline BENCH_coord.baseline.json [-max-regress 0.5]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// benchFile is the union of the gate-relevant fields of the gated
// experiments' results; the Experiment tag says which pair is populated.
type benchFile struct {
	Experiment string `json:"experiment"`
	K          int    `json:"k"`
	// fastjoin: streamed signature update cost.
	FlatNsPerUpdate float64 `json:"flat_ns_per_update"`
	FastNsPerUpdate float64 `json:"fast_ns_per_update"`
	// wireingest: 4-client streaming ingest, HTTP JSON vs amswire.
	HTTPNsPerRow float64 `json:"http_ns_per_row"`
	WireNsPerRow float64 `json:"wire_ns_per_row"`
	// coordserve: 4-client join queries, per-query pull vs cached daemon.
	PullNsPerQuery   float64 `json:"pull_ns_per_query"`
	CachedNsPerQuery float64 `json:"cached_ns_per_query"`
}

// pair returns (fast-path, reference-path) values for the file's
// experiment; ok is false for an experiment without a gate.
func (b *benchFile) pair() (fast, ref float64, ok bool) {
	switch b.Experiment {
	case "fastjoin":
		return b.FastNsPerUpdate, b.FlatNsPerUpdate, true
	case "wireingest":
		return b.WireNsPerRow, b.HTTPNsPerRow, true
	case "coordserve":
		return b.CachedNsPerQuery, b.PullNsPerQuery, true
	default:
		return 0, 0, false
	}
}

func main() {
	var (
		benchPath  = flag.String("bench", "BENCH_fastjoin.json", "freshly measured fastjoin result")
		basePath   = flag.String("baseline", "BENCH_fastjoin.baseline.json", "committed baseline to gate against")
		maxRegress = flag.Float64("max-regress", 0.25, "maximum tolerated relative regression (0.25 = 25%)")
		metric     = flag.String("metric", "normalized", "\"normalized\" (fast/flat ratio, machine-independent) or \"absolute\" (raw fast ns/op)")
		updateBase = flag.Bool("update-baseline", false, "rewrite the baseline from the current measurement instead of gating")
		parent     = flag.String("parent", "", "paired mode: checkout of the parent commit")
		change     = flag.String("change", "", "paired mode: checkout of the change")
	)
	flag.Parse()
	var err error
	switch {
	case *parent != "" && *change != "":
		err = runPaired(*parent, *change, os.Stdout)
	case *parent != "" || *change != "":
		err = fmt.Errorf("the paired mode needs both -parent and -change")
	default:
		err = run(*benchPath, *basePath, *maxRegress, *metric, *updateBase, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func load(path string) (*benchFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	fast, ref, ok := b.pair()
	if !ok {
		return nil, fmt.Errorf("%s: experiment %q, want fastjoin, wireingest, or coordserve", path, b.Experiment)
	}
	if fast <= 0 || ref <= 0 {
		return nil, fmt.Errorf("%s: non-positive timings (fast=%g reference=%g)", path, fast, ref)
	}
	return &b, nil
}

// value extracts the gated metric from a measurement.
func value(b *benchFile, metric string) (float64, error) {
	fast, ref, _ := b.pair()
	switch metric {
	case "normalized":
		return fast / ref, nil
	case "absolute":
		return fast, nil
	default:
		return 0, fmt.Errorf("unknown metric %q (want normalized or absolute)", metric)
	}
}

func run(benchPath, basePath string, maxRegress float64, metric string, updateBase bool, out io.Writer) error {
	if maxRegress <= 0 {
		return fmt.Errorf("max-regress %g must be positive", maxRegress)
	}
	cur, err := load(benchPath)
	if err != nil {
		return err
	}
	if updateBase {
		raw, err := os.ReadFile(benchPath)
		if err != nil {
			return err
		}
		if err := os.WriteFile(basePath, raw, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "benchgate: baseline %s refreshed from %s\n", basePath, benchPath)
		return nil
	}
	base, err := load(basePath)
	if err != nil {
		return err
	}
	if cur.Experiment != base.Experiment {
		return fmt.Errorf("experiment mismatch: measured %q vs baseline %q", cur.Experiment, base.Experiment)
	}
	if cur.K != base.K {
		return fmt.Errorf("signature size changed (k=%d vs baseline k=%d); refresh the baseline with -update-baseline", cur.K, base.K)
	}
	curV, err := value(cur, metric)
	if err != nil {
		return err
	}
	baseV, err := value(base, metric)
	if err != nil {
		return err
	}
	regress := curV/baseV - 1
	curFast, curRef, _ := cur.pair()
	baseFast, baseRef, _ := base.pair()
	fmt.Fprintf(out, "benchgate: experiment=%s metric=%s k=%d current=%.4g baseline=%.4g regression=%+.1f%% (tolerance %.0f%%)\n",
		cur.Experiment, metric, cur.K, curV, baseV, 100*regress, 100*maxRegress)
	fmt.Fprintf(out, "benchgate: fast=%.4g ns/op reference=%.4g ns/op (baseline fast=%.4g reference=%.4g)\n",
		curFast, curRef, baseFast, baseRef)
	if regress > maxRegress {
		return fmt.Errorf("%s hot-path cost regressed %.1f%% > %.0f%% tolerance", cur.Experiment, 100*regress, 100*maxRegress)
	}
	return nil
}
