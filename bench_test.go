package amstrack_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (DESIGN.md §4 maps each to its bench) and measures the
// operation costs Theorems 2.1/2.2 assert. Each figure bench prints its
// rows once — running
//
//	go test -bench=. -benchmem .
//
// reproduces the full evaluation; per-iteration timing covers the
// estimation phase on prebuilt state, so ns/op numbers are meaningful.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"amstrack"
	"amstrack/internal/amsd"
	"amstrack/internal/datasets"
	dist2 "amstrack/internal/dist"
	"amstrack/internal/engine"
	"amstrack/internal/experiments"
	"amstrack/internal/hash"
	"amstrack/internal/tablefmt"
	"amstrack/internal/xrand"
)

const benchSeed = 1

var (
	printOnceMu sync.Mutex
	printedOnce = map[string]bool{}

	figMu    sync.Mutex
	figCache = map[string]*figState{}
)

type figState struct {
	res *experiments.FigureResult
	ev  *experiments.Evaluator
}

// printOnce emits a table exactly once per benchmark name, so repeated
// calibration runs of the same benchmark do not duplicate output.
func printOnce(key, title string, t *tablefmt.Table) {
	printOnceMu.Lock()
	defer printOnceMu.Unlock()
	if printedOnce[key] {
		return
	}
	printedOnce[key] = true
	fmt.Printf("\n== %s ==\n%s\n", title, t.String())
}

func figure(b *testing.B, name string) *figState {
	b.Helper()
	figMu.Lock()
	defer figMu.Unlock()
	if st, ok := figCache[name]; ok {
		return st
	}
	spec, err := datasets.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	values, err := spec.Generate(benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := experiments.NewEvaluator(values, 1<<experiments.MaxLog2SampleSize, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	res, err := experiments.RunFigure(spec, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	st := &figState{res: res, ev: ev}
	figCache[name] = st
	return st
}

// benchFigure prints the figure's rows once and times one full sweep of
// estimates (15 sizes × 3 algorithms) on the prebuilt evaluator.
func benchFigure(b *testing.B, name string) {
	st := figure(b, name)
	title := fmt.Sprintf("Figure %d: %s (n=%d, t=%d, SJ=%s)",
		st.res.Figure, name, st.res.Dataset.Length, st.res.Dataset.Domain,
		tablefmt.FormatFloat(st.res.ActualSJ))
	printOnce(b.Name(), title, st.res.Table())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lg := 0; lg <= experiments.MaxLog2SampleSize; lg++ {
			s := 1 << lg
			for _, a := range experiments.Algos() {
				if _, err := st.ev.Estimate(a, s, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkTable1_Datasets(b *testing.B) {
	t, err := experiments.Table1(benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	printOnce(b.Name(), "Table 1: data sets and their characteristics (paper vs measured)", t)
	spec, err := datasets.ByName("mf2") // smallest set: time generation+measure
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spec.Measure(benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig02_Zipf1_0(b *testing.B)     { benchFigure(b, "zipf1.0") }
func BenchmarkFig03_Zipf1_5(b *testing.B)     { benchFigure(b, "zipf1.5") }
func BenchmarkFig04_Uniform(b *testing.B)     { benchFigure(b, "uniform") }
func BenchmarkFig05_MF2(b *testing.B)         { benchFigure(b, "mf2") }
func BenchmarkFig06_MF3(b *testing.B)         { benchFigure(b, "mf3") }
func BenchmarkFig07_SelfSimilar(b *testing.B) { benchFigure(b, "selfsimilar") }
func BenchmarkFig08_Poisson(b *testing.B)     { benchFigure(b, "poisson") }
func BenchmarkFig09_Wuther(b *testing.B)      { benchFigure(b, "wuther") }
func BenchmarkFig10_Genesis(b *testing.B)     { benchFigure(b, "genesis") }
func BenchmarkFig11_Brown2(b *testing.B)      { benchFigure(b, "brown2") }
func BenchmarkFig12_Xout1(b *testing.B)       { benchFigure(b, "xout1") }
func BenchmarkFig13_Yout1(b *testing.B)       { benchFigure(b, "yout1") }
func BenchmarkFig14_Path(b *testing.B)        { benchFigure(b, "path") }

func BenchmarkFig15_Robustness(b *testing.B) {
	res, err := experiments.RunFig15(1024, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	printOnce(b.Name(), "Figure 15: robustness of estimators Xij (zipf1.5, 1024 sorted estimators)", res.Table())
	s := res.Summary()
	printOnceMu.Lock()
	if !printedOnce[b.Name()+"/summary"] {
		printedOnce[b.Name()+"/summary"] = true
		fmt.Printf("fig15 summary: median=%.3f min=%.3f max=%.3f within±50%%=%.1f%%\n\n",
			s.MedianNormalized, s.MinNormalized, s.MaxNormalized, 100*s.FracWithin50Pct)
	}
	printOnceMu.Unlock()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = res.Summary()
	}
}

func BenchmarkConvergenceTable(b *testing.B) {
	// Reuses the cached figures; builds any not yet materialized.
	var figs []*experiments.FigureResult
	for _, spec := range datasets.SortedByFigure() {
		figs = append(figs, figure(b, spec.Name).res)
	}
	conv := experiments.RunConvergence(figs, 0.15)
	printOnce(b.Name(), "§3.1: minimum sample size within 15% relative error", conv.Table())
	printOnceMu.Lock()
	if !printedOnce[b.Name()+"/summary"] {
		printedOnce[b.Name()+"/summary"] = true
		fmt.Printf("geometric mean factor sample-count/tug-of-war: %.1f\n", conv.MeanAdvantage(experiments.TugOfWar, experiments.SampleCount))
		fmt.Printf("geometric mean factor naive-sampling/tug-of-war: %.1f\n\n", conv.MeanAdvantage(experiments.TugOfWar, experiments.NaiveSampling))
	}
	printOnceMu.Unlock()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.RunConvergence(figs, 0.15)
	}
}

func BenchmarkSection44_Comparison(b *testing.B) {
	res, err := experiments.RunSection44(benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	printOnce(b.Name(), "§4.4: analytical comparison of join signature schemes", res.Table())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = res.Table()
	}
}

func BenchmarkLemma23_NaiveLB(b *testing.B) {
	res, err := experiments.RunLemma23(40000, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	printOnce(b.Name(), "Lemma 2.3: naive-sampling lower bound (n=40000, √n=200)", res.Table())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunLemma23(4000, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTheorem43_SignatureLB(b *testing.B) {
	res, err := experiments.RunTheorem43(2000, 80000, []int{4, 16, 50, 200, 800, 2000}, 40, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	printOnce(b.Name(), fmt.Sprintf("Theorem 4.3: separating join size B from 2B (n=%d, B=%d, critical n²/B=%.0f words)", res.N, res.B, res.CriticalW), res.Table())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTheorem43(500, 5000, []int{50}, 4, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinSignatureAccuracy(b *testing.B) {
	res, err := experiments.RunJoinAccuracy([]int{16, 64, 256, 1024, 4096}, 3, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	printOnce(b.Name(), "§4.3/§5: k-TW vs sampling join signatures at equal memory (mean relerr, 3 trials)", res.Table())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunJoinAccuracy([]int{16}, 1, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeletionTracking(b *testing.B) {
	res, err := experiments.RunDeletions(
		[]string{"zipf1.0", "uniform", "selfsimilar", "genesis"},
		[]float64{0, 0.1, 0.25}, 1024, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	printOnce(b.Name(), "Tracking accuracy under deletions (streaming trackers, s=1024 words)", res.Table())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunDeletions([]string{"mf2"}, []float64{0.2}, 64, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Operation-cost benchmarks (Theorems 2.1 and 2.2 time bounds) ----

// Tug-of-war updates are O(s): ns/op must scale linearly with s. The
// s1=1024,s2=16 run is the flat baseline for BenchmarkUpdateFastTugOfWar's
// matching sub-benchmark (the Fast-AMS acceptance comparison).
func BenchmarkUpdateTugOfWar(b *testing.B) {
	for _, s := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("s=%d", s), func(b *testing.B) {
			tw, err := amstrack.NewTugOfWar(amstrack.Config{S1: s / 8, S2: 8, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			r := xrand.New(2)
			vals := make([]uint64, 1<<14)
			for i := range vals {
				vals[i] = r.Uint64n(1 << 16)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tw.Insert(vals[i&(1<<14-1)])
			}
		})
	}
	b.Run("s1=1024,s2=16", func(b *testing.B) {
		tw, err := amstrack.NewTugOfWar(amstrack.Config{S1: 1024, S2: 16, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		r := xrand.New(2)
		vals := make([]uint64, 1<<14)
		for i := range vals {
			vals[i] = r.Uint64n(1 << 16)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tw.Insert(vals[i&(1<<14-1)])
		}
	})
}

// Fast-AMS updates are O(S2), independent of S1: ns/op must stay flat as
// s (and with it S1) grows, and at the acceptance config S1=1024, S2=16 it
// must beat the flat sketch's matching sub-benchmark by ≥ 10×.
func BenchmarkUpdateFastTugOfWar(b *testing.B) {
	for _, s := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("s=%d", s), func(b *testing.B) {
			ft, err := amstrack.NewFastTugOfWar(amstrack.Config{S1: s / 8, S2: 8, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			r := xrand.New(2)
			vals := make([]uint64, 1<<14)
			for i := range vals {
				vals[i] = r.Uint64n(1 << 16)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ft.Insert(vals[i&(1<<14-1)])
			}
		})
	}
	b.Run("s1=1024,s2=16", func(b *testing.B) {
		ft, err := amstrack.NewFastTugOfWar(amstrack.Config{S1: 1024, S2: 16, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		r := xrand.New(2)
		vals := make([]uint64, 1<<14)
		for i := range vals {
			vals[i] = r.Uint64n(1 << 16)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ft.Insert(vals[i&(1<<14-1)])
		}
	})
}

// Batch ingestion: whole-slice updates amortize per-call overhead and keep
// each row's tables cache-resident (fast) or aggregate duplicates (flat).
// BenchmarkUpdateTWSignature is the flat §4.3 join signature's streamed
// update: O(k) hash evaluations per tuple. The k=1024 run is the baseline
// for BenchmarkUpdateFastTWSignature's headline (the engine acceptance
// criterion: ≥ 10x at equal memory).
func BenchmarkUpdateTWSignature(b *testing.B) {
	for _, k := range []int{64, 1024} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			fam, err := amstrack.NewSignatureFamily(k, 1)
			if err != nil {
				b.Fatal(err)
			}
			sig := fam.NewSignature()
			r := xrand.New(2)
			vals := make([]uint64, 1<<14)
			for i := range vals {
				vals[i] = r.Uint64n(1 << 16)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sig.Insert(vals[i&(1<<14-1)])
			}
		})
	}
}

// BenchmarkUpdateFastTWSignature is the bucketed signature at the same
// total sizes (8 rows): one hash evaluation and one counter touch per
// row, independent of k.
func BenchmarkUpdateFastTWSignature(b *testing.B) {
	for _, k := range []int{64, 1024} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			fam, err := amstrack.NewFastSignatureFamily(k/8, 8, 1)
			if err != nil {
				b.Fatal(err)
			}
			sig := fam.NewSignature()
			r := xrand.New(2)
			vals := make([]uint64, 1<<14)
			for i := range vals {
				vals[i] = r.Uint64n(1 << 16)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sig.Insert(vals[i&(1<<14-1)])
			}
		})
	}
}

// Chain signatures (§5 three-way joins) take one sign per family member
// for every row: O(k) four-wise evaluations, at k = 1024 here. The Insert
// sub-benchmarks are the per-row path (log replay and the reference
// model use it); InsertBatch feeds 64-row batches, the shape of an
// absorber message, through the batch sign kernel. Both report ns per
// row.
const chainBenchK, chainBenchBatch = 1024, 64

// chainBenchKeys draws 1<<14 join-attribute values.
func chainBenchKeys(seed uint64) []uint64 {
	r := xrand.New(seed)
	vals := make([]uint64, 1<<14)
	for i := range vals {
		vals[i] = r.Uint64n(1 << 16)
	}
	return vals
}

// BenchmarkUpdateChainEnd is a chain end signature's update.
func BenchmarkUpdateChainEnd(b *testing.B) {
	fam, err := amstrack.NewChainFamily(chainBenchK, 1)
	if err != nil {
		b.Fatal(err)
	}
	vals := chainBenchKeys(2)
	b.Run("Insert", func(b *testing.B) {
		sig, _ := fam.NewEndSignature(0)
		for i := 0; i < b.N; i++ {
			sig.Insert(vals[i&(1<<14-1)])
		}
	})
	b.Run("InsertBatch", func(b *testing.B) {
		sig, _ := fam.NewEndSignature(0)
		for i := 0; i < b.N; i += chainBenchBatch {
			off := i & (1<<14 - 1)
			sig.InsertBatch(vals[off : off+min(chainBenchBatch, b.N-i)])
		}
	})
}

// BenchmarkUpdateChainMiddle is a chain middle signature's update: two
// four-wise evaluations per family member and row.
func BenchmarkUpdateChainMiddle(b *testing.B) {
	fam, err := amstrack.NewChainFamily(chainBenchK, 1)
	if err != nil {
		b.Fatal(err)
	}
	as, bs := chainBenchKeys(2), chainBenchKeys(3)
	b.Run("Insert", func(b *testing.B) {
		sig := fam.NewMiddleSignature()
		for i := 0; i < b.N; i++ {
			sig.Insert(as[i&(1<<14-1)], bs[i&(1<<14-1)])
		}
	})
	b.Run("InsertBatch", func(b *testing.B) {
		sig := fam.NewMiddleSignature()
		for i := 0; i < b.N; i += chainBenchBatch {
			off := i & (1<<14 - 1)
			n := min(chainBenchBatch, b.N-i)
			sig.InsertBatch(as[off:off+n], bs[off:off+n])
		}
	})
}

// BenchmarkEngineIngest streams single-value inserts through a full
// engine relation (signature + sketch + sharding), the per-tuple cost an
// amsd deployment pays — at 1, 4, and GOMAXPROCS concurrent writers, on
// uniform and zipf(1.2) keys, in memory and with the oplog. The skewed
// keys check that hot values cannot re-serialize the absorber pipeline.
// The alternating case inserts a uniform key and deletes it again, op by
// op: inserts and deletes stage in one run per kind, so switching kinds
// costs no extra message. Timing includes the final Drain, so staged ops
// cannot flatter the numbers.
func BenchmarkEngineIngest(b *testing.B) {
	nCPU := runtime.GOMAXPROCS(0)
	writerCounts := []int{1, 4}
	if nCPU != 1 && nCPU != 4 {
		writerCounts = append(writerCounts, nCPU)
	}
	valuesFor := func(dist string, worker int) []uint64 {
		vals := make([]uint64, 1<<14)
		switch dist {
		case "uniform", "alternating":
			r := xrand.New(uint64(2 + worker))
			for i := range vals {
				vals[i] = r.Uint64n(1 << 16)
			}
		case "zipf":
			z, err := dist2.NewZipf(1.2, 1<<16, uint64(2+worker))
			if err != nil {
				b.Fatal(err)
			}
			for i := range vals {
				vals[i] = z.Next()
			}
		}
		return vals
	}
	for _, wal := range []string{"mem", "wal"} {
		for _, writers := range writerCounts {
			for _, dist := range []string{"uniform", "zipf", "alternating"} {
				b.Run(fmt.Sprintf("log=%s/writers=%d/%s", wal, writers, dist), func(b *testing.B) {
					opts := amstrack.EngineOptions{SignatureWords: 1024, Seed: 1}
					var (
						eng *amstrack.Engine
						err error
					)
					if wal == "wal" {
						opts.Dir = b.TempDir()
						eng, err = amstrack.OpenEngine(opts)
					} else {
						eng, err = amstrack.NewEngine(opts)
					}
					if err != nil {
						b.Fatal(err)
					}
					defer eng.Close()
					rel, err := eng.Define("r")
					if err != nil {
						b.Fatal(err)
					}
					streams := make([][]uint64, writers)
					for w := range streams {
						streams[w] = valuesFor(dist, w)
					}
					b.ResetTimer()
					var wg sync.WaitGroup
					for w := 0; w < writers; w++ {
						n := b.N / writers
						if w == 0 {
							n += b.N % writers
						}
						wg.Add(1)
						go func(vals []uint64, n int) {
							defer wg.Done()
							for i := 0; i < n; i++ {
								if dist == "alternating" && i&1 == 1 {
									_ = rel.Delete(vals[(i-1)&(1<<14-1)])
									continue
								}
								rel.Insert(vals[i&(1<<14-1)])
							}
						}(streams[w], n)
					}
					wg.Wait()
					if err := rel.Drain(); err != nil {
						b.Fatal(err)
					}
				})
			}
		}
	}
}

// BenchmarkRelationReads times the reads a node serves from one cut of a
// relation: the node-local join (EstimateJoin of two relations), the
// self-join with its row count (amsd's /v1/selfjoin handler, which
// answers both), and the bundle export — on 4-shard relations of 2^19
// zipf(1.5) rows, plain and skimmed (96 heavy hitters). Setup ingests
// outside the timed region; reads run against idle relations.
func BenchmarkRelationReads(b *testing.B) {
	for _, skim := range []int{0, 96} {
		name := "plain"
		if skim > 0 {
			name = "skimmed"
		}
		b.Run(name, func(b *testing.B) {
			eng, err := amstrack.NewEngine(amstrack.EngineOptions{SignatureWords: 1024, Seed: 1, Shards: 4})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			for i, rel := range []string{"f", "g"} {
				r, err := eng.DefineSchema(rel, engine.Schema{SkimHitters: skim})
				if err != nil {
					b.Fatal(err)
				}
				z, err := dist2.NewZipf(1.5, 1<<20, uint64(3+i))
				if err != nil {
					b.Fatal(err)
				}
				batch := make([]uint64, 1<<12)
				for n := 0; n < 1<<19; n += len(batch) {
					for j := range batch {
						batch[j] = z.Next()
					}
					r.InsertBatch(batch)
				}
			}
			if err := eng.Drain(); err != nil {
				b.Fatal(err)
			}
			srv := amsd.NewServer(eng)
			selfJoin := httptest.NewRequest(http.MethodGet, "/v1/selfjoin?relation=f", nil)
			for _, read := range []struct {
				name string
				fn   func() error
			}{
				{"join", func() error { _, err := eng.EstimateJoin("f", "g"); return err }},
				{"selfjoin", func() error {
					w := httptest.NewRecorder()
					srv.ServeHTTP(w, selfJoin)
					if w.Code != http.StatusOK {
						return fmt.Errorf("selfjoin: status %d", w.Code)
					}
					return nil
				}},
				{"export", func() error { _, err := eng.ExportRelation("f"); return err }},
			} {
				b.Run(read.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if err := read.fn(); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkEngineRecover times engine.Open of a durable directory whose
// logs hold a 2^20-row plain relation and a 20k-row chain-middle relation
// (k = 1024 for both), none of it checkpointed: recovery is log replay,
// through the absorbers' apply. The directory is built outside the
// timer; Open only reads it, and the Close after each Open writes
// nothing back.
func BenchmarkEngineRecover(b *testing.B) {
	opts := amstrack.EngineOptions{SignatureWords: 1024, Seed: 1, Dir: b.TempDir()}
	eng, err := amstrack.OpenEngine(opts)
	if err != nil {
		b.Fatal(err)
	}
	// The chain schema checkpoints at define, before any row lands.
	mid, err := eng.DefineSchema("g", engine.Schema{Attrs: []string{"a", "b"}, Middle: [][2]string{{"a", "b"}}})
	if err != nil {
		b.Fatal(err)
	}
	plain, err := eng.Define("f")
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(5)
	batch := make([]uint64, 1<<12)
	for n := 0; n < 1<<20; n += len(batch) {
		for i := range batch {
			batch[i] = r.Uint64n(1 << 16)
		}
		plain.InsertBatch(batch)
	}
	rows := make([][]uint64, 1000)
	for n := 0; n < 20000; n += len(rows) {
		for i := range rows {
			rows[i] = []uint64{r.Uint64n(1 << 12), r.Uint64n(1 << 12)}
		}
		mid.InsertTupleBatch(rows)
	}
	if err := eng.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		back, err := amstrack.OpenEngine(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		f, err := back.Get("f")
		if err != nil || f.Len() != 1<<20 {
			b.Fatalf("recovered relation f: %v, want %d rows", err, 1<<20)
		}
		if err := back.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func BenchmarkUpdateFastTugOfWarBatch(b *testing.B) {
	ft, err := amstrack.NewFastTugOfWar(amstrack.Config{S1: 1024, S2: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(2)
	vals := make([]uint64, 1<<14)
	for i := range vals {
		vals[i] = r.Uint64n(1 << 16)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i += len(vals) {
		ft.InsertBatch(vals)
	}
}

func BenchmarkUpdateTugOfWarBatch(b *testing.B) {
	tw, err := amstrack.NewTugOfWar(amstrack.Config{S1: 512, S2: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(2)
	vals := make([]uint64, 1<<14)
	for i := range vals {
		vals[i] = r.Uint64n(1 << 12) // duplicate-heavy: aggregation pays off
	}
	b.ResetTimer()
	for i := 0; i < b.N; i += len(vals) {
		tw.InsertBatch(vals)
	}
}

// Sample-count updates are O(1) amortized: ns/op must stay flat in s.
func BenchmarkUpdateSampleCount(b *testing.B) {
	for _, s := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("s=%d", s), func(b *testing.B) {
			sc, err := amstrack.NewSampleCount(amstrack.Config{S1: s / 8, S2: 8, Seed: 1}, amstrack.WithWindowFromStart())
			if err != nil {
				b.Fatal(err)
			}
			r := xrand.New(2)
			vals := make([]uint64, 1<<14)
			for i := range vals {
				vals[i] = r.Uint64n(1 << 16)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.Insert(vals[i&(1<<14-1)])
			}
		})
	}
}

func BenchmarkUpdateNaiveSample(b *testing.B) {
	ns, err := amstrack.NewNaiveSample(amstrack.Config{S1: 512, S2: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(2)
	vals := make([]uint64, 1<<14)
	for i := range vals {
		vals[i] = r.Uint64n(1 << 16)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ns.Insert(vals[i&(1<<14-1)])
	}
}

func BenchmarkQuerySelfJoin(b *testing.B) {
	const s = 4096
	r := xrand.New(3)
	feed := func(tr amstrack.Tracker) {
		rr := xrand.New(5)
		for i := 0; i < 200000; i++ {
			tr.Insert(rr.Uint64n(1 << 12))
		}
	}
	_ = r
	b.Run("tug-of-war", func(b *testing.B) {
		tw, _ := amstrack.NewTugOfWar(amstrack.Config{S1: s / 8, S2: 8, Seed: 1})
		feed(tw)
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += tw.Estimate()
		}
		_ = sink
	})
	b.Run("sample-count", func(b *testing.B) {
		sc, _ := amstrack.NewSampleCount(amstrack.Config{S1: s / 8, S2: 8, Seed: 1}, amstrack.WithWindowFromStart())
		feed(sc)
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += sc.Estimate()
		}
		_ = sink
	})
	b.Run("naive-sampling", func(b *testing.B) {
		ns, _ := amstrack.NewNaiveSample(amstrack.Config{S1: s / 8, S2: 8, Seed: 1})
		feed(ns)
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += ns.Estimate()
		}
		_ = sink
	})
}

func BenchmarkJoinSignatureOps(b *testing.B) {
	fam, err := amstrack.NewSignatureFamily(256, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("insert-k256", func(b *testing.B) {
		sig := fam.NewSignature()
		for i := 0; i < b.N; i++ {
			sig.Insert(uint64(i & 4095))
		}
	})
	b.Run("estimate-k256", func(b *testing.B) {
		x, y := fam.NewSignature(), fam.NewSignature()
		r := xrand.New(1)
		for i := 0; i < 50000; i++ {
			x.Insert(r.Uint64n(1000))
			y.Insert(r.Uint64n(1000))
		}
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			est, err := amstrack.EstimateJoin(x, y)
			if err != nil {
				b.Fatal(err)
			}
			sink += est
		}
		_ = sink
	})
}

// BenchmarkAblationHashIndependence quantifies why the paper insists on
// four-wise independence: it prints the mean relative error of the F2
// estimator under the 4-wise polynomial family versus the 2-wise (affine)
// family at equal sketch size, on a skewed input where pairwise
// independence is not enough for the variance bound.
func BenchmarkAblationHashIndependence(b *testing.B) {
	r := xrand.New(17)
	values := make([]uint64, 100000)
	for i := range values {
		values[i] = r.Uint64n(64) * 3571 // few heavy values, scattered
	}
	freq := map[uint64]int64{}
	for _, v := range values {
		freq[v]++
	}
	var sj float64
	for _, f := range freq {
		sj += float64(f) * float64(f)
	}
	const s = 64
	const trials = 200
	measure := func(fourWise bool) float64 {
		totErr := 0.0
		for trial := 0; trial < trials; trial++ {
			sum := 0.0
			for k := 0; k < s; k++ {
				seed := xrand.Mix64(uint64(trial)<<20 ^ uint64(k))
				var z int64
				if fourWise {
					fn := hash.NewFourWise(seed)
					for v, f := range freq {
						z += fn.Sign(v) * f
					}
				} else {
					fn := hash.NewTwoWise(seed)
					for v, f := range freq {
						z += fn.Sign(v) * f
					}
				}
				sum += float64(z) * float64(z)
			}
			est := sum / s
			if est > sj {
				totErr += (est - sj) / sj
			} else {
				totErr += (sj - est) / sj
			}
		}
		return totErr / trials
	}
	printOnceMu.Lock()
	if !printedOnce[b.Name()] {
		printedOnce[b.Name()] = true
		t := tablefmt.New("family", "mean relerr at s=64")
		t.AddRow("4-wise (paper)", measure(true))
		t.AddRow("2-wise (ablation)", measure(false))
		fmt.Printf("\n== Ablation: hash independence for tug-of-war ==\n%s\n", t.String())
	}
	printOnceMu.Unlock()
	b.ResetTimer()
	fn := hash.NewFourWise(1)
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += fn.Sign(uint64(i))
	}
	_ = sink
}
