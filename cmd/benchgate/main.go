// Command benchgate is the perf-trajectory regression gate: it compares
// a freshly measured benchmark JSON (amsbench ... -json) against the
// committed baseline and fails — exit 1 — when the gated hot-path cost
// regressed beyond the tolerance. CI runs it after each experiment, so a
// PR that slows a gated hot path by more than the tolerance cannot merge
// silently. Seven gated experiments:
//
//   - fastjoin (BENCH_fastjoin.json): the fast join signature's streamed
//     update cost, normalized as fast_ns_per_update ÷ flat_ns_per_update;
//   - engineingest (BENCH_engine.json): the engine's durable
//     single-writer ingest path, normalized as absorber_ns_per_op ÷
//     core_ns_per_op — the core rung is a bare join signature plus
//     Fast-AMS sketch of the engine's shapes fed the same stream on one
//     goroutine, so the ratio prices what the engine adds;
//   - ckpttail (BENCH_ckpt.json): p99 ingest latency with the background
//     checkpointer ON, normalized as on_p99_ns ÷ off_p99_ns — the
//     pause-free-checkpoint guarantee (acceptance: within 2x);
//   - wireingest (BENCH_wire.json): end-to-end streaming ingest over
//     amswire, normalized as wire_ns_per_row ÷ http_ns_per_row at 4
//     concurrent clients (acceptance: wire at least 3x HTTP's rows/sec);
//   - coordserve (BENCH_coord.json): the coordinator daemon's cached
//     join serving, normalized as cached_ns_per_query ÷
//     pull_ns_per_query at 4 concurrent clients (acceptance: cached at
//     least 10x the per-query pull path's estimates/sec);
//   - routedingest (BENCH_router.json): the partitioned-ingest tier's
//     per-row toll, normalized as routed_ns_per_row ÷ direct_ns_per_row
//     at 4 concurrent amswire clients — what the consistent-hash router
//     (ring partition, re-framing, second hop, composed ack ladder)
//     charges over a direct single-node stream;
//   - skimacc (BENCH_skim.json): an ACCURACY gate, not a timing one —
//     the skimmed estimator's zipf(1.5) self-join relative error,
//     normalized as skim_relerr_zipf15 ÷ unskim_relerr_zipf15 at equal
//     memory. The skimming acceptance line is hard-coded on top of the
//     baseline comparison: any measurement with ratio ≥ 1 (skimming not
//     strictly beating the plain sketch on skew) fails outright.
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
//	benchgate -bench BENCH_fastjoin.json -baseline BENCH_fastjoin.baseline.json [-max-regress 0.25]
//	benchgate -bench BENCH_engine.json -baseline BENCH_engine.baseline.json [-max-regress 0.35]
//	benchgate -bench BENCH_ckpt.json -baseline BENCH_ckpt.baseline.json [-max-regress 0.75]
//	benchgate -bench BENCH_wire.json -baseline BENCH_wire.baseline.json [-max-regress 0.5]
//	benchgate -bench BENCH_coord.json -baseline BENCH_coord.baseline.json [-max-regress 0.5]
//	benchgate -bench BENCH_router.json -baseline BENCH_router.baseline.json [-max-regress 0.5]
//	benchgate -bench BENCH_skim.json -baseline BENCH_skim.baseline.json [-max-regress 0.5]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// benchFile is the union of the gate-relevant fields of
// experiments.FastJoinResult and experiments.EngineIngestResult; the
// Experiment tag says which pair is populated.
type benchFile struct {
	Experiment string `json:"experiment"`
	K          int    `json:"k"`
	// fastjoin: streamed signature update cost.
	FlatNsPerUpdate float64 `json:"flat_ns_per_update"`
	FastNsPerUpdate float64 `json:"fast_ns_per_update"`
	// engineingest: bare-synopsis core rung vs single-writer durable
	// engine ingest.
	CoreNsPerOp     float64 `json:"core_ns_per_op"`
	AbsorberNsPerOp float64 `json:"absorber_ns_per_op"`
	// ckpttail: p99 ingest latency with the checkpointer off vs on.
	OffP99Ns float64 `json:"off_p99_ns"`
	OnP99Ns  float64 `json:"on_p99_ns"`
	// wireingest: 4-client streaming ingest, HTTP JSON vs amswire.
	HTTPNsPerRow float64 `json:"http_ns_per_row"`
	WireNsPerRow float64 `json:"wire_ns_per_row"`
	// coordserve: 4-client join queries, per-query pull vs cached daemon.
	PullNsPerQuery   float64 `json:"pull_ns_per_query"`
	CachedNsPerQuery float64 `json:"cached_ns_per_query"`
	// routedingest: 4-client amswire ingest, direct node vs routed fleet.
	DirectNsPerRow float64 `json:"direct_ns_per_row"`
	RoutedNsPerRow float64 `json:"routed_ns_per_row"`
	// skimacc: zipf(1.5) self-join relative error, plain vs skimmed
	// sketch at equal memory (dimensionless, smaller is better — the
	// normalized metric is an error ratio rather than a time ratio).
	UnskimRelErrZipf15 float64 `json:"unskim_relerr_zipf15"`
	SkimRelErrZipf15   float64 `json:"skim_relerr_zipf15"`
}

// pair returns (fast-path, reference-path) nanoseconds for the file's
// experiment.
func (b *benchFile) pair() (fast, ref float64) {
	switch b.Experiment {
	case "engineingest":
		return b.AbsorberNsPerOp, b.CoreNsPerOp
	case "ckpttail":
		return b.OnP99Ns, b.OffP99Ns
	case "wireingest":
		return b.WireNsPerRow, b.HTTPNsPerRow
	case "coordserve":
		return b.CachedNsPerQuery, b.PullNsPerQuery
	case "routedingest":
		return b.RoutedNsPerRow, b.DirectNsPerRow
	case "skimacc":
		return b.SkimRelErrZipf15, b.UnskimRelErrZipf15
	default:
		return b.FastNsPerUpdate, b.FlatNsPerUpdate
	}
}

func main() {
	var (
		benchPath  = flag.String("bench", "BENCH_fastjoin.json", "freshly measured fastjoin result")
		basePath   = flag.String("baseline", "BENCH_fastjoin.baseline.json", "committed baseline to gate against")
		maxRegress = flag.Float64("max-regress", 0.25, "maximum tolerated relative regression (0.25 = 25%)")
		metric     = flag.String("metric", "normalized", "\"normalized\" (fast/flat ratio, machine-independent) or \"absolute\" (raw fast ns/op)")
		updateBase = flag.Bool("update-baseline", false, "rewrite the baseline from the current measurement instead of gating")
	)
	flag.Parse()
	if err := run(*benchPath, *basePath, *maxRegress, *metric, *updateBase, os.Stdout); err != nil {
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
	if b.Experiment != "fastjoin" && b.Experiment != "engineingest" && b.Experiment != "ckpttail" && b.Experiment != "wireingest" && b.Experiment != "coordserve" && b.Experiment != "routedingest" && b.Experiment != "skimacc" {
		return nil, fmt.Errorf("%s: experiment %q, want fastjoin, engineingest, ckpttail, wireingest, coordserve, routedingest, or skimacc", path, b.Experiment)
	}
	fast, ref := b.pair()
	if fast <= 0 || ref <= 0 {
		return nil, fmt.Errorf("%s: non-positive timings (fast=%g reference=%g)", path, fast, ref)
	}
	return &b, nil
}

// value extracts the gated metric from a measurement.
func value(b *benchFile, metric string) (float64, error) {
	fast, ref := b.pair()
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
	curFast, curRef := cur.pair()
	baseFast, baseRef := base.pair()
	fmt.Fprintf(out, "benchgate: experiment=%s metric=%s k=%d current=%.4g baseline=%.4g regression=%+.1f%% (tolerance %.0f%%)\n",
		cur.Experiment, metric, cur.K, curV, baseV, 100*regress, 100*maxRegress)
	fmt.Fprintf(out, "benchgate: fast=%.4g ns/op reference=%.4g ns/op (baseline fast=%.4g reference=%.4g)\n",
		curFast, curRef, baseFast, baseRef)
	if regress > maxRegress {
		return fmt.Errorf("%s hot-path cost regressed %.1f%% > %.0f%% tolerance", cur.Experiment, 100*regress, 100*maxRegress)
	}
	if cur.Experiment == "skimacc" {
		// The skimming acceptance line, independent of the baseline: at
		// equal memory the skimmed estimator must beat the plain sketch
		// on zipf(1.5) STRICTLY, or the exact-HH budget is wasted.
		if ratio := curFast / curRef; ratio >= 1 {
			return fmt.Errorf("skimacc: skimmed zipf1.5 relerr %.4g is not strictly below unskimmed %.4g (ratio %.3f >= 1)", curFast, curRef, ratio)
		}
	}
	return nil
}
