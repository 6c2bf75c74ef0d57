package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"amstrack/internal/datasets"
	"amstrack/internal/exact"
	"amstrack/internal/join"
	"amstrack/internal/tablefmt"
	"amstrack/internal/xrand"
)

// This file scores the bucketed FastTWSignature against the flat
// TWSignature at EQUAL memory — the join-side companion of fastacc. Two
// questions, matching the change's acceptance criteria:
//
//  1. SPEED: ns per streamed update at signature size k. The flat scheme
//     pays O(k) hash evaluations per tuple, the fast one O(rows); at
//     k = 1024 the gap must be an order of magnitude or more.
//  2. ACCURACY: mean |relative error| of the join estimate on Table 1
//     data set pairs. The fast scheme carries the same Lemma 4.4
//     variance bound at equal memory, so the errors must be
//     statistically indistinguishable, not merely "close".
//
// The result serializes to JSON (amsbench -experiment fastjoin -json →
// BENCH_fastjoin.json) so CI tracks the perf trajectory PR over PR.

// FastJoinRow is one data set pair's flat-vs-fast accuracy comparison.
type FastJoinRow struct {
	Dataset    string  `json:"dataset"`
	JoinSize   float64 `json:"join_size"`
	FlatRelErr float64 `json:"flat_relerr"`
	FastRelErr float64 `json:"fast_relerr"`
	Ratio      float64 `json:"relerr_ratio"` // fast/flat (NaN when flat exact)
	SigmaRel   float64 `json:"sigma_rel"`    // Lemma 4.4 1σ bound / join size
}

// FastJoinResult carries the speed measurement and the accuracy sweep.
type FastJoinResult struct {
	Experiment string `json:"experiment"`
	K          int    `json:"k"`
	Rows       int    `json:"rows"`
	Trials     int    `json:"trials"`

	FlatNsPerUpdate float64 `json:"flat_ns_per_update"`
	FastNsPerUpdate float64 `json:"fast_ns_per_update"`
	Speedup         float64 `json:"speedup"`
	// FastBatchNsPerUpdate is the fast signature's InsertBatch cost per
	// row in 64-value chunks: the floor its per-value Insert should sit
	// near, since both run the same grid update.
	FastBatchNsPerUpdate float64 `json:"fast_batch_ns_per_update"`

	Datasets []FastJoinRow `json:"datasets"`
}

// RunFastJoin measures update cost and join accuracy of the two signature
// schemes with k words each (the fast scheme split into rows rows; 0
// picks 8). Accuracy pairs each named data set (all of Table 1 when names
// is empty) with an independently seeded draw of the same distribution,
// averaging absolute relative errors over trials family seeds.
func RunFastJoin(names []string, k, rows, trials int, seed uint64) (*FastJoinResult, error) {
	if trials < 1 {
		return nil, fmt.Errorf("experiments: fast join needs >= 1 trial")
	}
	if rows == 0 {
		rows = 8
	}
	if k%rows != 0 {
		return nil, fmt.Errorf("experiments: rows %d must divide k %d", rows, k)
	}
	if len(names) == 0 {
		names = datasets.Names()
	}
	res := &FastJoinResult{Experiment: "fastjoin", K: k, Rows: rows, Trials: trials}

	// --- speed: ns per streamed Insert at size k ---
	flatFam, err := join.NewFamily(k, seed)
	if err != nil {
		return nil, err
	}
	fastFam, err := join.NewFastFamily(k/rows, rows, seed)
	if err != nil {
		return nil, err
	}
	r := xrand.New(seed ^ 0xfa57)
	vals := make([]uint64, 1<<13)
	for i := range vals {
		vals[i] = r.Uint64n(1 << 16)
	}
	res.FlatNsPerUpdate, res.FastNsPerUpdate, res.FastBatchNsPerUpdate =
		timeUpdates(flatFam.NewSignature(), fastFam.NewSignature(), vals)
	if res.FastNsPerUpdate > 0 {
		res.Speedup = res.FlatNsPerUpdate / res.FastNsPerUpdate
	}

	// --- accuracy: Table 1 pairs at equal memory ---
	for _, name := range names {
		spec, err := datasets.ByName(name)
		if err != nil {
			return nil, err
		}
		fvals, err := spec.Generate(seed)
		if err != nil {
			return nil, err
		}
		gvals, err := spec.Generate(seed + 101)
		if err != nil {
			return nil, err
		}
		fh, gh := exact.FromValues(fvals), exact.FromValues(gvals)
		ffreq, gfreq := fh.Frequencies(), gh.Frequencies()
		truth := float64(fh.JoinSize(gh))
		if truth == 0 {
			continue
		}
		flatErr, fastErr := 0.0, 0.0
		for trial := 0; trial < trials; trial++ {
			tseed := xrand.Mix64(seed ^ uint64(trial)<<40 ^ uint64(len(name)))
			fam, err := join.NewFamily(k, tseed)
			if err != nil {
				return nil, err
			}
			sf, sg := fam.NewSignature(), fam.NewSignature()
			sf.SetFrequencies(ffreq)
			sg.SetFrequencies(gfreq)
			est, err := join.EstimateJoin(sf, sg)
			if err != nil {
				return nil, err
			}
			flatErr += math.Abs(est-truth) / truth

			ffam, err := join.NewFastFamily(k/rows, rows, tseed)
			if err != nil {
				return nil, err
			}
			qf, qg := ffam.NewSignature(), ffam.NewSignature()
			qf.SetFrequencies(ffreq)
			qg.SetFrequencies(gfreq)
			est, err = join.EstimateJoin(qf, qg)
			if err != nil {
				return nil, err
			}
			fastErr += math.Abs(est-truth) / truth
		}
		flatErr /= float64(trials)
		fastErr /= float64(trials)
		ratio := math.NaN()
		if flatErr > 0 {
			ratio = fastErr / flatErr
		}
		res.Datasets = append(res.Datasets, FastJoinRow{
			Dataset:    name,
			JoinSize:   truth,
			FlatRelErr: flatErr,
			FastRelErr: fastErr,
			Ratio:      ratio,
			SigmaRel:   join.ErrorBound(float64(fh.SelfJoin()), float64(gh.SelfJoin()), k) / truth,
		})
	}
	return res, nil
}

// timeUpdates measures the steady-state ns per row of the flat and the
// fast signature's per-value Insert, and of the fast one's InsertBatch. It
// alternates short rounds between the three and keeps each one's best
// round: load from other processes lands on some rounds of any side, not
// on all of one side's time, so the best rounds see the same machine.
func timeUpdates(flat, fast join.Signature, vals []uint64) (flatNs, fastNs, batchNs float64) {
	const rounds = 7
	flatNs, fastNs, batchNs = math.Inf(1), math.Inf(1), math.Inf(1)
	for range rounds {
		flatNs = min(flatNs, timeRound(perValue(flat), vals))
		fastNs = min(fastNs, timeRound(perValue(fast), vals))
		batchNs = min(batchNs, timeRound(fast.InsertBatch, vals))
	}
	return flatNs, fastNs, batchNs
}

// perValue inserts a chunk one Insert call at a time.
func perValue(sig join.Signature) func([]uint64) {
	return func(chunk []uint64) {
		for _, v := range chunk {
			sig.Insert(v)
		}
	}
}

// timeRound returns one round's ns per row: it hands insert vals in
// 64-value chunks, wrapping around, until the round has run for at least
// 5 ms. len(vals) must be a multiple of the chunk.
func timeRound(insert func([]uint64), vals []uint64) float64 {
	const minDuration, chunk = 5 * time.Millisecond, 64
	total := 0
	start := time.Now()
	for time.Since(start) < minDuration {
		off := total % len(vals)
		insert(vals[off : off+chunk])
		total += chunk
	}
	return float64(time.Since(start).Nanoseconds()) / float64(total)
}

// Table renders the accuracy sweep with the speed headline in the title
// rows of amsbench's aligned-text output.
func (r *FastJoinResult) Table() *tablefmt.Table {
	t := tablefmt.New("data set", "join size", "flat relerr", "fast relerr",
		"fast/flat", "sigma/J")
	for _, row := range r.Datasets {
		t.AddRow(row.Dataset, row.JoinSize, row.FlatRelErr, row.FastRelErr,
			row.Ratio, row.SigmaRel)
	}
	return t
}

// MeanRatio returns the mean fast/flat error ratio across data sets
// (NaN rows skipped) — the single-number accuracy verdict.
func (r *FastJoinResult) MeanRatio() float64 {
	sum, n := 0.0, 0
	for _, row := range r.Datasets {
		if !math.IsNaN(row.Ratio) {
			sum += row.Ratio
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// JSON serializes the result for machine consumption (NaN ratios are
// clamped to -1, which encoding/json cannot represent otherwise).
func (r *FastJoinResult) JSON() ([]byte, error) {
	clean := *r
	clean.Datasets = append([]FastJoinRow(nil), r.Datasets...)
	for i := range clean.Datasets {
		if math.IsNaN(clean.Datasets[i].Ratio) {
			clean.Datasets[i].Ratio = -1
		}
	}
	return json.MarshalIndent(&clean, "", "  ")
}
