package experiments

import (
	"fmt"
	"math"

	"amstrack/internal/core"
	"amstrack/internal/datasets"
	"amstrack/internal/exact"
	"amstrack/internal/join"
	"amstrack/internal/tablefmt"
	"amstrack/internal/xrand"
)

// This file scores the skimmed estimator — exact heavy-hitter table +
// sketched tail — against the plain sketch at EQUAL total memory, the
// acceptance experiment of the skimming change. The claim under test is
// Rafiei–Deng skimming applied to the AGMS synopses: on skewed data the
// handful of heavy values dominates both the self-join size and the
// sketch variance, so spending part of the budget on tracking them
// EXACTLY (3 words per slot: value, count, error bound) and letting the
// correspondingly smaller sketch absorb only the tail must cut the
// relative error — strictly, on zipf(1.5) — while on uniform data the
// table buys nothing and must cost almost nothing.
//
// Every stream gets a deletion wave (the leading tenth of the stream is
// deleted again at the end), exercising the deletion-aware table: the
// synopses are compared against exact ground truth computed AFTER the
// wave.
//
// TestSkimAccZipfRegression gates the zipf(1.5) skim/unskim self-join
// error ratio at the experiment's fixed seeds: it must stay below 1 —
// the "skimming must win on skew" acceptance line — and within 1.5x of
// its recorded value.

// skimDeleteFrac is the deletion wave: this fraction of the stream
// (its leading prefix) is deleted again after ingest.
const skimDeleteFrac = 0.1

// SkimAccRow is one data set's skim-vs-plain accuracy comparison at
// equal memory, mean absolute relative error over the trials.
type SkimAccRow struct {
	Dataset       string
	SelfJoin      float64
	JoinSize      float64
	UnskimSJErr   float64
	SkimSJErr     float64
	SJRatio       float64 // skim/unskim (NaN when unskim exact)
	UnskimJoinErr float64
	SkimJoinErr   float64
	JoinRatio     float64
	// HittersUsed is the occupancy of the (deterministic) heavy-hitter
	// table after the deletion wave.
	HittersUsed int
}

// SkimAccResult is the full sweep plus the zipf(1.5) self-join errors
// of the two schemes, whose ratio TestSkimAccZipfRegression gates.
type SkimAccResult struct {
	// K is the total synopsis budget in 64-bit words — the plain sketch
	// spends all of it on counters, the skimmed scheme splits it between
	// the table (3·Hitters words) and a smaller sketch.
	K          int
	S2         int
	Hitters    int
	Trials     int
	DeleteFrac float64

	UnskimRelErrZipf15 float64
	SkimRelErrZipf15   float64

	Datasets []SkimAccRow
}

// RunSkimAcc measures skimmed vs plain accuracy for each named data set
// (uniform + both zipf sets when names is empty) at a total budget of k
// words split into s2 rows, the skimmed scheme giving 3·hitters words to
// the heavy-hitter table. Errors are averaged over trials independent
// sketch-family seeds; the table is deterministic, so it is built once
// per stream and shared across trials.
func RunSkimAcc(names []string, k, s2, hitters, trials int, seed uint64) (*SkimAccResult, error) {
	if trials < 1 {
		return nil, fmt.Errorf("experiments: skimacc needs >= 1 trial")
	}
	if s2 < 1 || k%s2 != 0 {
		return nil, fmt.Errorf("experiments: rows %d must divide budget %d", s2, k)
	}
	if hitters < 1 {
		return nil, fmt.Errorf("experiments: skimacc needs >= 1 hitter slot")
	}
	hhWords := 3 * hitters
	if hhWords%s2 != 0 {
		return nil, fmt.Errorf("experiments: table budget %d words must divide into %d rows", hhWords, s2)
	}
	skimS1 := (k - hhWords) / s2
	if skimS1 < 1 {
		return nil, fmt.Errorf("experiments: table budget %d words leaves no sketch inside %d", hhWords, k)
	}
	if len(names) == 0 {
		names = []string{"uniform", "zipf1.0", "zipf1.5"}
	}
	res := &SkimAccResult{
		K: k, S2: s2, Hitters: hitters,
		Trials: trials, DeleteFrac: skimDeleteFrac,
		UnskimRelErrZipf15: math.NaN(), SkimRelErrZipf15: math.NaN(),
	}
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
		hhSeed := xrand.Mix64(seed ^ uint64(len(name))<<32 ^ 0x5c1aab1e)
		fh, fhh, err := skimStream(fvals, hitters, hhSeed)
		if err != nil {
			return nil, err
		}
		gh, ghh, err := skimStream(gvals, hitters, hhSeed)
		if err != nil {
			return nil, err
		}
		truthSJ := float64(fh.SelfJoin())
		truthJoin := float64(fh.JoinSize(gh))
		if truthSJ == 0 || truthJoin == 0 {
			continue
		}
		ffreq, gfreq := fh.Frequencies(), gh.Frequencies()
		row := SkimAccRow{Dataset: name, SelfJoin: truthSJ, JoinSize: truthJoin, HittersUsed: fhh.Len()}
		for trial := 0; trial < trials; trial++ {
			tseed := xrand.Mix64(seed ^ uint64(trial)<<40 ^ uint64(len(name)))

			// Self-join, plain: the whole budget as one sketch.
			plain, err := core.NewFastTugOfWar(core.Config{S1: k / s2, S2: s2, Seed: tseed})
			if err != nil {
				return nil, err
			}
			plain.SetFrequencies(ffreq) // linear: bit-identical to streaming
			row.UnskimSJErr += math.Abs(plain.Estimate()-truthSJ) / truthSJ

			// Self-join, skimmed: smaller sketch + the exact table.
			skim, err := core.NewFastTugOfWar(core.Config{S1: skimS1, S2: s2, Seed: tseed})
			if err != nil {
				return nil, err
			}
			skim.SetFrequencies(ffreq)
			row.SkimSJErr += math.Abs(core.SkimmedEstimate(&skim.Grid, fhh)-truthSJ) / truthSJ

			// Join, plain.
			fam, err := join.NewFastFamily(k/s2, s2, tseed)
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
			row.UnskimJoinErr += math.Abs(est-truthJoin) / truthJoin

			// Join, skimmed: exact(HH×HH) + sketched cross and tail.
			sfam, err := join.NewFastFamily(skimS1, s2, tseed)
			if err != nil {
				return nil, err
			}
			qf, qg := sfam.NewSignature(), sfam.NewSignature()
			qf.SetFrequencies(ffreq)
			qg.SetFrequencies(gfreq)
			est, err = join.SkimmedJoin(qf, qg, fhh.SkimFrequencies(), ghh.SkimFrequencies())
			if err != nil {
				return nil, err
			}
			row.SkimJoinErr += math.Abs(est-truthJoin) / truthJoin
		}
		n := float64(trials)
		row.UnskimSJErr /= n
		row.SkimSJErr /= n
		row.UnskimJoinErr /= n
		row.SkimJoinErr /= n
		row.SJRatio, row.JoinRatio = math.NaN(), math.NaN()
		if row.UnskimSJErr > 0 {
			row.SJRatio = row.SkimSJErr / row.UnskimSJErr
		}
		if row.UnskimJoinErr > 0 {
			row.JoinRatio = row.SkimJoinErr / row.UnskimJoinErr
		}
		if name == "zipf1.5" {
			res.UnskimRelErrZipf15 = row.UnskimSJErr
			res.SkimRelErrZipf15 = row.SkimSJErr
		}
		res.Datasets = append(res.Datasets, row)
	}
	return res, nil
}

// skimStream materializes one stream with its deletion wave: every value
// inserted, then the leading skimDeleteFrac of the stream deleted again,
// through both the exact histogram (ground truth) and the deterministic
// heavy-hitter table.
func skimStream(vals []uint64, hitters int, hhSeed uint64) (*exact.Histogram, *core.SpaceSaving, error) {
	hh, err := core.NewSpaceSaving(hitters, hhSeed)
	if err != nil {
		return nil, nil, err
	}
	h := exact.NewHistogram()
	for _, v := range vals {
		h.Insert(v)
		hh.Insert(v)
	}
	for _, v := range vals[:int(float64(len(vals))*skimDeleteFrac)] {
		if err := h.Delete(v); err != nil {
			return nil, nil, err
		}
		hh.Delete(v)
	}
	return h, hh, nil
}

// Table renders the accuracy sweep for amsbench's aligned-text output.
func (r *SkimAccResult) Table() *tablefmt.Table {
	t := tablefmt.New("data set", "self-join", "plain sj relerr", "skim sj relerr",
		"sj skim/plain", "plain join relerr", "skim join relerr", "join skim/plain", "hitters")
	for _, row := range r.Datasets {
		t.AddRow(row.Dataset, row.SelfJoin, row.UnskimSJErr, row.SkimSJErr, row.SJRatio,
			row.UnskimJoinErr, row.SkimJoinErr, row.JoinRatio, row.HittersUsed)
	}
	return t
}
