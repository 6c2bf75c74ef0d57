package join

import (
	"math"
	"testing"

	"amstrack/internal/hash"
	"amstrack/internal/xrand"
)

// chainTruth computes Σ_{a,b} f_a · g_{a,b} · h_b exactly.
func chainTruth(f map[uint64]int64, g map[[2]uint64]int64, h map[uint64]int64) float64 {
	total := 0.0
	for ab, c := range g {
		total += float64(f[ab[0]]) * float64(c) * float64(h[ab[1]])
	}
	return total
}

func TestNewChainFamilyValidation(t *testing.T) {
	if _, err := NewChainFamily(0, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
	fam, err := NewChainFamily(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fam.K() != 4 {
		t.Fatalf("K = %d", fam.K())
	}
	if _, err := fam.NewEndSignature(2); err == nil {
		t.Fatal("attr=2 accepted")
	}
}

func TestChainJoinExactOnSingleLink(t *testing.T) {
	// F: 3 tuples of a=x; G: 5 tuples of (x, y); H: 7 tuples of b=y.
	// Every atomic product is (3ε⁰)(5ε⁰ε¹)(7ε¹) = 105 exactly.
	fam, _ := NewChainFamily(8, 3)
	f, _ := fam.NewEndSignature(0)
	h, _ := fam.NewEndSignature(1)
	g := fam.NewMiddleSignature()
	for i := 0; i < 3; i++ {
		f.Insert(42)
	}
	for i := 0; i < 5; i++ {
		g.Insert(42, 77)
	}
	for i := 0; i < 7; i++ {
		h.Insert(77)
	}
	got, err := EstimateChainJoin(f, g, h)
	if err != nil {
		t.Fatal(err)
	}
	if got != 105 {
		t.Fatalf("estimate = %v, want exactly 105", got)
	}
}

func TestChainJoinValidation(t *testing.T) {
	fam1, _ := NewChainFamily(4, 1)
	fam2, _ := NewChainFamily(4, 2)
	f1, _ := fam1.NewEndSignature(0)
	h1, _ := fam1.NewEndSignature(1)
	g1 := fam1.NewMiddleSignature()
	g2 := fam2.NewMiddleSignature()
	if _, err := EstimateChainJoin(f1, g2, h1); err == nil {
		t.Error("cross-family chain accepted")
	}
	if _, err := EstimateChainJoin(nil, g1, h1); err == nil {
		t.Error("nil accepted")
	}
	// Swapped ends: f bound to attr 1.
	if _, err := EstimateChainJoin(h1, g1, f1); err == nil {
		t.Error("swapped attributes accepted")
	}
}

func TestChainJoinUnbiasedOverFamilies(t *testing.T) {
	// Small random instance; average the k=1 estimator across families.
	r := xrand.New(7)
	fFreq := map[uint64]int64{}
	hFreq := map[uint64]int64{}
	gFreq := map[[2]uint64]int64{}
	for i := 0; i < 400; i++ {
		fFreq[r.Uint64n(10)]++
		hFreq[r.Uint64n(10)]++
		gFreq[[2]uint64{r.Uint64n(10), r.Uint64n(10)}]++
	}
	truth := chainTruth(fFreq, gFreq, hFreq)
	const fams = 4000
	sum := 0.0
	for seed := uint64(0); seed < fams; seed++ {
		fam, _ := NewChainFamily(1, seed)
		f, _ := fam.NewEndSignature(0)
		h, _ := fam.NewEndSignature(1)
		g := fam.NewMiddleSignature()
		for v, c := range fFreq {
			for i := int64(0); i < c; i++ {
				f.Insert(v)
			}
		}
		for v, c := range hFreq {
			for i := int64(0); i < c; i++ {
				h.Insert(v)
			}
		}
		for ab, c := range gFreq {
			for i := int64(0); i < c; i++ {
				g.Insert(ab[0], ab[1])
			}
		}
		est, err := EstimateChainJoin(f, g, h)
		if err != nil {
			t.Fatal(err)
		}
		sum += est
	}
	mean := sum / fams
	if math.Abs(mean-truth)/truth > 0.15 {
		t.Fatalf("mean chain estimate %.0f deviates from truth %.0f", mean, truth)
	}
}

func TestChainJoinAccuracyImprovesWithK(t *testing.T) {
	r := xrand.New(19)
	// Build a moderately sized chain instance.
	const n = 20000
	fam4, _ := NewChainFamily(4, 100)
	fam512, _ := NewChainFamily(512, 100)
	fFreq := map[uint64]int64{}
	hFreq := map[uint64]int64{}
	gFreq := map[[2]uint64]int64{}
	fVals := make([]uint64, n)
	hVals := make([]uint64, n)
	gVals := make([][2]uint64, n)
	for i := 0; i < n; i++ {
		fVals[i] = r.Uint64n(100)
		hVals[i] = r.Uint64n(100)
		gVals[i] = [2]uint64{r.Uint64n(100), r.Uint64n(100)}
		fFreq[fVals[i]]++
		hFreq[hVals[i]]++
		gFreq[gVals[i]]++
	}
	truth := chainTruth(fFreq, gFreq, hFreq)
	errAt := func(fam *ChainFamily, seeds int) float64 {
		tot := 0.0
		for s := 0; s < seeds; s++ {
			// Re-derive a family per seed by shifting the base seed.
			fm, _ := NewChainFamily(fam.k, fam.seed+uint64(s))
			f, _ := fm.NewEndSignature(0)
			h, _ := fm.NewEndSignature(1)
			g := fm.NewMiddleSignature()
			for _, v := range fVals {
				f.Insert(v)
			}
			for _, v := range hVals {
				h.Insert(v)
			}
			for _, ab := range gVals {
				g.Insert(ab[0], ab[1])
			}
			est, _ := EstimateChainJoin(f, g, h)
			tot += math.Abs(est - truth)
		}
		return tot / float64(seeds)
	}
	e4 := errAt(fam4, 6)
	e512 := errAt(fam512, 6)
	// k grew 128x → expected ~11x error reduction; demand at least 3x.
	if e512 >= e4/3 {
		t.Fatalf("chain error did not shrink with k: e4=%.3g e512=%.3g", e4, e512)
	}
}

func TestChainSignatureDeletes(t *testing.T) {
	fam, _ := NewChainFamily(8, 5)
	f, _ := fam.NewEndSignature(0)
	g := fam.NewMiddleSignature()
	f.Insert(1)
	f.Insert(2)
	if err := f.Delete(1); err != nil {
		t.Fatal(err)
	}
	g.Insert(1, 2)
	if err := g.Delete(1, 2); err != nil {
		t.Fatal(err)
	}
	if f.Len() != 1 || g.Len() != 0 {
		t.Fatalf("lens = %d, %d", f.Len(), g.Len())
	}
	if f.MemoryWords() != 8 || g.MemoryWords() != 8 {
		t.Fatal("memory accounting wrong")
	}
	// g fully cancelled: estimate with empty middle must be 0.
	h, _ := fam.NewEndSignature(1)
	h.Insert(2)
	est, err := EstimateChainJoin(f, g, h)
	if err != nil {
		t.Fatal(err)
	}
	if est != 0 {
		t.Fatalf("estimate with cancelled middle = %v", est)
	}
}

// TestChainBatchMatchesPerRowSigns checks the batch apply path against
// a per-row loop over FourWise.Sign: counters and lengths of both end
// signatures and the middle after a batch of inserts and a batch of
// deletes, at batch sizes around the kernel's block of 64 keys, on keys
// that include the field's edges and values at and above 2^61.
func TestChainBatchMatchesPerRowSigns(t *testing.T) {
	const p = hash.MersennePrime61
	edges := []uint64{0, 1, p - 1, p, p + 1, 2 * p, 1 << 61, 1 << 63, 1<<64 - 1}
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		r := xrand.New(uint64(n) + 3)
		key := func() uint64 {
			if r.Uint64n(3) == 0 {
				return edges[r.Uint64n(uint64(len(edges)))]
			}
			return r.Uint64()
		}
		// Every third row is a delete.
		var insA, insB, delA, delB []uint64
		for i := 0; i < n; i++ {
			a, b := key(), key()
			if i%3 == 2 {
				delA, delB = append(delA, a), append(delB, b)
			} else {
				insA, insB = append(insA, a), append(insB, b)
			}
		}
		fam, err := NewChainFamily(40, uint64(n))
		if err != nil {
			t.Fatal(err)
		}
		f, _ := fam.NewEndSignature(0)
		h, _ := fam.NewEndSignature(1)
		g := fam.NewMiddleSignature()
		f.InsertBatch(insA)
		h.InsertBatch(insB)
		g.InsertBatch(insA, insB)
		if err := f.DeleteBatch(delA); err != nil {
			t.Fatal(err)
		}
		if err := h.DeleteBatch(delB); err != nil {
			t.Fatal(err)
		}
		if err := g.DeleteBatch(delA, delB); err != nil {
			t.Fatal(err)
		}

		wantLen := int64(len(insA) - len(delA))
		for m := 0; m < fam.k; m++ {
			fa, fb := fam.fns[0][m], fam.fns[1][m]
			var wf, wh, wg int64
			for i := range insA {
				wf += fa.Sign(insA[i])
				wh += fb.Sign(insB[i])
				wg += fa.Sign(insA[i]) * fb.Sign(insB[i])
			}
			for i := range delA {
				wf -= fa.Sign(delA[i])
				wh -= fb.Sign(delB[i])
				wg -= fa.Sign(delA[i]) * fb.Sign(delB[i])
			}
			if f.z[m] != wf || h.z[m] != wh || g.z[m] != wg {
				t.Fatalf("n=%d member %d: batch counters (%d, %d, %d), per-row signs (%d, %d, %d)",
					n, m, f.z[m], h.z[m], g.z[m], wf, wh, wg)
			}
		}
		if f.Len() != wantLen || h.Len() != wantLen || g.Len() != wantLen {
			t.Fatalf("n=%d: lens (%d, %d, %d), want %d", n, f.Len(), h.Len(), g.Len(), wantLen)
		}
	}
}

func BenchmarkChainMiddleInsertK256(b *testing.B) {
	fam, _ := NewChainFamily(256, 1)
	g := fam.NewMiddleSignature()
	for i := 0; i < b.N; i++ {
		g.Insert(uint64(i&1023), uint64((i>>10)&1023))
	}
}
