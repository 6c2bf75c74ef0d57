// Command amsbench regenerates the paper's tables and figures.
//
// Usage:
//
//	amsbench -experiment table1            # Table 1
//	amsbench -experiment fig2 .. fig15     # a single accuracy figure
//	amsbench -experiment figures           # all of Figs. 2–14
//	amsbench -experiment convergence       # §3.1 15%-convergence summary
//	amsbench -experiment sec44             # §4.4 analytical comparison
//	amsbench -experiment lemma23           # Lemma 2.3 naive-sampling lower bound
//	amsbench -experiment thm43             # Theorem 4.3 signature lower bound
//	amsbench -experiment joinacc           # §4.3 join-signature accuracy study
//	amsbench -experiment chainacc          # §5 three-way chain estimator accuracy
//	amsbench -experiment deletions         # tracking accuracy under deletions
//	amsbench -experiment fastacc           # Fast-AMS vs flat tug-of-war accuracy
//	amsbench -experiment fastjoin          # fast vs flat join signature speed+accuracy
//	amsbench -experiment wireingest        # HTTP JSON vs amswire streaming ingest
//	amsbench -experiment coordserve        # coordinator: per-query pull vs cached daemon
//	amsbench -experiment skimacc           # skimmed (exact-HH + tail sketch) vs plain sketch accuracy
//	amsbench -experiment all               # everything above
//
// Output is aligned text on stdout; -csv DIR additionally writes one CSV
// file per experiment into DIR. -seed fixes the data-set seed (default 1),
// making every figure exactly reproducible. -json additionally writes
// machine-readable results for experiments that support it (fastjoin →
// BENCH_fastjoin.json, wireingest → BENCH_wire.json, coordserve →
// BENCH_coord.json, skimacc → BENCH_skim.json), so CI can track the perf
// trajectory.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"amstrack/internal/datasets"
	"amstrack/internal/experiments"
	"amstrack/internal/tablefmt"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "which experiment to run (table1, fig2..fig15, figures, convergence, sec44, lemma23, thm43, joinacc, chainacc, deletions, fastacc, fastjoin, wireingest, coordserve, skimacc, all)")
		seed       = flag.Uint64("seed", 1, "data set seed")
		csvDir     = flag.String("csv", "", "directory to additionally write CSV files into")
		trials     = flag.Int("trials", 5, "trials per cell for the join accuracy study")
		jsonOut    = flag.Bool("json", false, "additionally write machine-readable BENCH_<experiment>.json where supported")
	)
	flag.Parse()

	if err := run(*experiment, *seed, *csvDir, *trials, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "amsbench:", err)
		os.Exit(1)
	}
}

func run(experiment string, seed uint64, csvDir string, trials int, jsonOut bool) error {
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
	}
	emit := func(name, title string, t *tablefmt.Table) error {
		fmt.Printf("== %s ==\n", title)
		fmt.Println(t.String())
		if csvDir == "" {
			return nil
		}
		f, err := os.Create(filepath.Join(csvDir, name+".csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		return t.WriteCSV(f)
	}

	var figCache []*experiments.FigureResult
	allFigures := func() ([]*experiments.FigureResult, error) {
		if figCache != nil {
			return figCache, nil
		}
		var err error
		figCache, err = experiments.RunAllFigures(seed)
		return figCache, err
	}

	runOne := func(name string) error {
		switch {
		case name == "table1":
			t, err := experiments.Table1(seed)
			if err != nil {
				return err
			}
			return emit("table1", "Table 1: data sets and their characteristics", t)

		case name == "figures":
			figs, err := allFigures()
			if err != nil {
				return err
			}
			for _, f := range figs {
				title := fmt.Sprintf("Figure %d: %s (n=%d, t=%d, SJ=%s)",
					f.Figure, f.Dataset.Spec.Name, f.Dataset.Length, f.Dataset.Domain,
					tablefmt.FormatFloat(f.ActualSJ))
				if err := emit(fmt.Sprintf("fig%02d_%s", f.Figure, f.Dataset.Spec.Name), title, f.Table()); err != nil {
					return err
				}
			}
			return nil

		case strings.HasPrefix(name, "fig") && name != "fig15" && name != "figures":
			num, err := strconv.Atoi(strings.TrimPrefix(name, "fig"))
			if err != nil || num < 2 || num > 14 {
				return fmt.Errorf("unknown figure %q (fig2..fig15)", name)
			}
			for _, spec := range datasets.SortedByFigure() {
				if spec.Figure != num {
					continue
				}
				f, err := experiments.RunFigure(spec, seed)
				if err != nil {
					return err
				}
				title := fmt.Sprintf("Figure %d: %s (n=%d, t=%d, SJ=%s)",
					f.Figure, spec.Name, f.Dataset.Length, f.Dataset.Domain,
					tablefmt.FormatFloat(f.ActualSJ))
				return emit(fmt.Sprintf("fig%02d_%s", num, spec.Name), title, f.Table())
			}
			return fmt.Errorf("no data set for figure %d", num)

		case name == "fig15":
			r, err := experiments.RunFig15(1024, seed)
			if err != nil {
				return err
			}
			if err := emit("fig15_robustness", "Figure 15: robustness of estimators Xij (zipf1.5, 1024 estimators)", r.Table()); err != nil {
				return err
			}
			s := r.Summary()
			fmt.Printf("median=%.3f min=%.3f max=%.3f within±50%%=%.1f%%\n\n",
				s.MedianNormalized, s.MinNormalized, s.MaxNormalized, 100*s.FracWithin50Pct)
			return nil

		case name == "convergence":
			figs, err := allFigures()
			if err != nil {
				return err
			}
			conv := experiments.RunConvergence(figs, 0.15)
			if err := emit("convergence", "§3.1: minimum sample size within 15% relative error", conv.Table()); err != nil {
				return err
			}
			fmt.Printf("mean factor sample-count/tug-of-war: %.1f\n",
				conv.MeanAdvantage(experiments.TugOfWar, experiments.SampleCount))
			fmt.Printf("mean factor naive-sampling/tug-of-war: %.1f\n\n",
				conv.MeanAdvantage(experiments.TugOfWar, experiments.NaiveSampling))
			return nil

		case name == "sec44":
			r, err := experiments.RunSection44(seed)
			if err != nil {
				return err
			}
			return emit("sec44", "§4.4: analytical comparison of join signature schemes", r.Table())

		case name == "lemma23":
			r, err := experiments.RunLemma23(40000, seed)
			if err != nil {
				return err
			}
			return emit("lemma23", "Lemma 2.3: naive-sampling needs Ω(√n) (n=40000, √n=200)", r.Table())

		case name == "thm43":
			r, err := experiments.RunTheorem43(2000, 80000, []int{4, 16, 50, 200, 800, 2000}, 40, seed)
			if err != nil {
				return err
			}
			return emit("thm43", fmt.Sprintf("Theorem 4.3: separating join size B from 2B (n=%d, B=%d, critical n²/B=%.0f words)", r.N, r.B, r.CriticalW), r.Table())

		case name == "joinacc":
			r, err := experiments.RunJoinAccuracy([]int{16, 64, 256, 1024, 4096}, trials, seed)
			if err != nil {
				return err
			}
			return emit("joinacc", "§4.3/§5: k-TW vs sampling vs histogram join signatures at equal memory", r.Table())

		case name == "chainacc":
			r, err := experiments.RunChainAccuracy(nil, trials, seed)
			if err != nil {
				return err
			}
			return emit("chainacc", "§5: three-way chain estimator vs exact ground truth (engine end-to-end)", r.Table())

		case name == "fastacc":
			r, err := experiments.RunFastAccuracy(nil, 1024, 8, trials, seed)
			if err != nil {
				return err
			}
			return emit("fastacc", "Fast-AMS vs flat tug-of-war at equal memory (s=8192 words)", r.Table())

		case name == "fastjoin":
			r, err := experiments.RunFastJoin(nil, 1024, 8, trials, seed)
			if err != nil {
				return err
			}
			if err := emit("fastjoin", "Fast vs flat join signatures at k=1024 words", r.Table()); err != nil {
				return err
			}
			fmt.Printf("update cost: flat %.1f ns/op, fast %.1f ns/op → %.1fx speedup; mean relerr ratio fast/flat = %.3f\n\n",
				r.FlatNsPerUpdate, r.FastNsPerUpdate, r.Speedup, r.MeanRatio())
			if jsonOut {
				data, err := r.JSON()
				if err != nil {
					return err
				}
				if err := os.WriteFile("BENCH_fastjoin.json", data, 0o644); err != nil {
					return err
				}
				fmt.Println("wrote BENCH_fastjoin.json")
			}
			return nil

		case name == "wireingest":
			// k=64, no sketch: a transport benchmark wants the lightest
			// engine shape, so the measured contrast is the request cycle
			// vs the pipelined stream — not the synopsis hash loop.
			r, err := experiments.RunWireIngest(64, seed)
			if err != nil {
				return err
			}
			if err := emit("wireingest", "Streaming ingest: HTTP JSON vs amswire (k=64, no sketch, real listeners)", r.Table()); err != nil {
				return err
			}
			fmt.Printf("%d-client uniform ingest: http %.1f ns/row, wire %.1f ns/row → %.1fx speedup\n\n",
				4, r.HTTPNsPerRow, r.WireNsPerRow, r.Speedup)
			if jsonOut {
				data, err := r.JSON()
				if err != nil {
					return err
				}
				if err := os.WriteFile("BENCH_wire.json", data, 0o644); err != nil {
					return err
				}
				fmt.Println("wrote BENCH_wire.json")
			}
			return nil

		case name == "coordserve":
			// Coordinator serving tier: per-query bundle pulls vs the
			// joinctl -serve cached daemon, same two live nodes, same
			// bit-identical answer.
			r, err := experiments.RunCoordServe(1024, seed)
			if err != nil {
				return err
			}
			if err := emit("coordserve", "Coordinator serving: per-query pull vs cached daemon (k=1024, 2 nodes, live refresh)", r.Table()); err != nil {
				return err
			}
			fmt.Printf("%d-client join queries: pull %.0f ns/query, cached %.0f ns/query → %.1fx speedup\n\n",
				4, r.PullNsPerQuery, r.CachedNsPerQuery, r.Speedup)
			if jsonOut {
				data, err := r.JSON()
				if err != nil {
					return err
				}
				if err := os.WriteFile("BENCH_coord.json", data, 0o644); err != nil {
					return err
				}
				fmt.Println("wrote BENCH_coord.json")
			}
			return nil

		case name == "skimacc":
			// Equal-memory skew robustness: 3072-word budget, the skimmed
			// scheme spending 288 of them (96 slots x 3 words) on the exact
			// heavy-hitter table; every stream gets a 10% deletion wave.
			r, err := experiments.RunSkimAcc(nil, 3072, 6, 96, trials, seed)
			if err != nil {
				return err
			}
			if err := emit("skimacc", "Skimmed (exact-HH + tail sketch) vs plain sketch at equal memory (3072 words, 96 hitters)", r.Table()); err != nil {
				return err
			}
			fmt.Printf("zipf1.5 self-join relerr: plain %.4f, skimmed %.4f -> ratio %.3f\n\n",
				r.UnskimRelErrZipf15, r.SkimRelErrZipf15, r.SkimRelErrZipf15/r.UnskimRelErrZipf15)
			if jsonOut {
				data, err := r.JSON()
				if err != nil {
					return err
				}
				if err := os.WriteFile("BENCH_skim.json", data, 0o644); err != nil {
					return err
				}
				fmt.Println("wrote BENCH_skim.json")
			}
			return nil

		case name == "deletions":
			r, err := experiments.RunDeletions(
				[]string{"zipf1.0", "uniform", "selfsimilar", "genesis"},
				[]float64{0, 0.1, 0.25}, 1024, seed)
			if err != nil {
				return err
			}
			return emit("deletions", "Tracking accuracy under deletions (streaming trackers, s=1024 words)", r.Table())

		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}

	if experiment == "all" {
		for _, name := range []string{"table1", "figures", "fig15", "convergence", "sec44", "lemma23", "thm43", "joinacc", "chainacc", "deletions", "fastacc", "fastjoin", "wireingest", "coordserve", "skimacc"} {
			if err := runOne(name); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	return runOne(experiment)
}
