package experiments

import (
	"encoding/json"
	"math"
	"testing"
)

func TestRunFastJoinValidation(t *testing.T) {
	if _, err := RunFastJoin(nil, 256, 8, 0, 1); err == nil {
		t.Fatal("0 trials accepted")
	}
	if _, err := RunFastJoin(nil, 256, 3, 1, 1); err == nil {
		t.Fatal("rows not dividing k accepted")
	}
	if _, err := RunFastJoin([]string{"nope"}, 256, 8, 1, 1); err == nil {
		t.Fatal("unknown data set accepted")
	}
}

func TestRunFastJoinSmall(t *testing.T) {
	r, err := RunFastJoin([]string{"zipf1.0", "uniform"}, 256, 8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Datasets) != 2 {
		t.Fatalf("rows = %d", len(r.Datasets))
	}
	for _, row := range r.Datasets {
		if row.JoinSize <= 0 {
			t.Fatalf("%s: join size %v", row.Dataset, row.JoinSize)
		}
		if row.FlatRelErr < 0 || row.FastRelErr < 0 {
			t.Fatalf("%s: negative error", row.Dataset)
		}
		// Same variance bound at equal memory: the fast scheme must stay
		// within a small factor even at 2 trials (generous slack).
		if row.FastRelErr > 5*row.FlatRelErr+5*row.SigmaRel {
			t.Fatalf("%s: fast relerr %.3g implausibly above flat %.3g (σ/J %.3g)",
				row.Dataset, row.FastRelErr, row.FlatRelErr, row.SigmaRel)
		}
	}
	if r.FlatNsPerUpdate <= 0 || r.FastNsPerUpdate <= 0 {
		t.Fatalf("timings missing: %+v", r)
	}
	if mean := r.MeanRatio(); math.IsNaN(mean) || mean <= 0 {
		t.Fatalf("mean ratio = %v", mean)
	}
	if r.Table() == nil {
		t.Fatal("nil table")
	}
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back FastJoinResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("JSON not round-trippable: %v", err)
	}
	if back.K != 256 || back.Experiment != "fastjoin" || len(back.Datasets) != 2 {
		t.Fatalf("JSON round trip = %+v", back)
	}
}

// TestFastJoinUpdateSpeedup is the acceptance criterion: at k = 1024 the
// bucketed signature's streamed-update cost must undercut the flat
// scheme's by at least 10x (the analytical gap is k/rows = 128x; 10x
// leaves lots of headroom for noisy CI machines). The flat scheme is two
// orders of magnitude slower, so that floor alone would pass a per-value
// Insert many times slower than it should be; the fast signature's own
// InsertBatch, timed in the same rounds, runs the same grid update and
// bounds it from the other side: per-value Insert may cost at most 3x a
// batched row (it reads about 1.2x).
func TestFastJoinUpdateSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	r, err := RunFastJoin([]string{"zipf1.0"}, 1024, 8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Speedup < 10 {
		t.Fatalf("fast signature speedup %.1fx at k=1024, want >= 10x (flat %.0f ns, fast %.0f ns)",
			r.Speedup, r.FlatNsPerUpdate, r.FastNsPerUpdate)
	}
	ratio := r.FastNsPerUpdate / r.FastBatchNsPerUpdate
	t.Logf("fast Insert %.1f ns, InsertBatch %.1f ns/row: %.2fx; flat/fast %.0fx", r.FastNsPerUpdate, r.FastBatchNsPerUpdate, ratio, r.Speedup)
	if ratio > 3 {
		t.Fatalf("fast signature per-value Insert costs %.2fx its InsertBatch per row, want <= 3x (Insert %.1f ns, InsertBatch %.1f ns/row)",
			ratio, r.FastNsPerUpdate, r.FastBatchNsPerUpdate)
	}
}
