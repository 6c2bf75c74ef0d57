package core

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"amstrack/internal/blob"
	"amstrack/internal/dist"
	"amstrack/internal/hash"
	"amstrack/internal/xrand"
)

// fastExactSJ computes Σ f² of a stream for ground truth.
func fastExactSJ(vals []uint64) float64 {
	freq := map[uint64]int64{}
	for _, v := range vals {
		freq[v]++
	}
	var s float64
	for _, f := range freq {
		s += float64(f) * float64(f)
	}
	return s
}

func TestFastTugOfWarValidation(t *testing.T) {
	if _, err := NewFastTugOfWar(Config{S1: 0, S2: 1}); err == nil {
		t.Error("S1=0 accepted")
	}
	if _, err := NewFastTugOfWar(Config{S1: 1, S2: 0}); err == nil {
		t.Error("S2=0 accepted")
	}
	if _, err := NewFastTugOfWar(Config{S1: 1, S2: hash.MaxTab4Rows + 1}); err == nil {
		t.Errorf("S2=%d accepted", hash.MaxTab4Rows+1)
	}
}

// allocated returns the bytes the heap handed out while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFastTugOfWarOversizedBlobCheap: a 32 KiB blob claiming 4096 rows
// must be refused before it sizes 4096 hash tables (256 MiB).
func TestFastTugOfWarOversizedBlobCheap(t *testing.T) {
	cfg := Config{S1: 1, S2: 4096, Seed: 1}
	data := marshalSketch(blob.MagicFastTugOfWar, cfg, 0, make([]int64, cfg.S1*cfg.S2))
	var err error
	got := allocated(func() {
		var sk FastTugOfWar
		err = sk.UnmarshalBinary(data)
	})
	if err == nil {
		t.Fatalf("%d-byte blob with S2=%d accepted", len(data), cfg.S2)
	}
	if got >= 1<<20 {
		t.Fatalf("rejecting a %d-byte blob allocated %d bytes", len(data), got)
	}
}

// TestFastTugOfWarSharesTables: sketches and decoded blobs on an equal
// Config reuse the live sketch's hash tables, so each costs its
// counters, not S2 fresh 64 KiB tables.
func TestFastTugOfWarSharesTables(t *testing.T) {
	cfg := Config{S1: 64, S2: 8, Seed: 0x7ab1e5}
	first, err := NewFastTugOfWar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first.InsertBatch([]uint64{1, 2, 3})
	data, _ := first.MarshalBinary()
	limit := uint64(cfg.S2) * 64 << 10
	for name, f := range map[string]func() error{
		"NewFastTugOfWar": func() error { _, err := NewFastTugOfWar(cfg); return err },
		"UnmarshalBinary": func() error { var sk FastTugOfWar; return sk.UnmarshalBinary(data) },
	} {
		var err error
		if got := allocated(func() { err = f() }); got >= limit {
			t.Errorf("%s allocated %d bytes, want < %d", name, got, limit)
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	runtime.KeepAlive(first)
}

// TestFastTugOfWarUnbiased checks E[X_j] = SJ: with a single row (no
// median) the mean estimate over many independent seeds must converge to
// the exact self-join size.
func TestFastTugOfWarUnbiased(t *testing.T) {
	r := xrand.New(3)
	vals := make([]uint64, 4000)
	for i := range vals {
		vals[i] = r.Uint64n(100)
	}
	sj := fastExactSJ(vals)

	const trials = 400
	sum := 0.0
	for trial := uint64(0); trial < trials; trial++ {
		ft, err := NewFastTugOfWar(Config{S1: 16, S2: 1, Seed: trial})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vals {
			ft.Insert(v)
		}
		sum += ft.Estimate()
	}
	mean := sum / trials
	// Var(X) ≤ 2·SJ²/S1, so the mean of 400 trials has σ ≤ SJ·√(2/16/400)
	// ≈ 0.018·SJ; 4σ ≈ 7%.
	if math.Abs(mean-sj)/sj > 0.07 {
		t.Fatalf("mean estimate %.0f vs SJ %.0f (relerr %.3f): estimator biased",
			mean, sj, math.Abs(mean-sj)/sj)
	}
}

// TestFastTugOfWarTheorem22Bounds checks the Theorem 2.2-style guarantee on
// Zipf and uniform streams: relative error ≤ 4/√S1 with probability
// ≥ 1 − 2^(−S2/2). With S1=256, S2=8 the bound is 25% with ≥ 94%
// confidence; we run 40 seeds per stream and allow 2 misses each.
func TestFastTugOfWarTheorem22Bounds(t *testing.T) {
	streams := map[string][]uint64{}
	zipf, err := dist.NewZipf(1.0, 5000, 17)
	if err != nil {
		t.Fatal(err)
	}
	streams["zipf"] = dist.Take(zipf, 50000)
	unif, err := dist.NewUniform(4096, 19)
	if err != nil {
		t.Fatal(err)
	}
	streams["uniform"] = dist.Take(unif, 50000)

	for name, vals := range streams {
		sj := fastExactSJ(vals)
		freq := map[uint64]int64{}
		for _, v := range vals {
			freq[v]++
		}
		const trials = 40
		misses := 0
		for trial := uint64(0); trial < trials; trial++ {
			ft, err := NewFastTugOfWar(Config{S1: 256, S2: 8, Seed: 1000 + trial})
			if err != nil {
				t.Fatal(err)
			}
			ft.SetFrequencies(freq)
			if math.Abs(ft.Estimate()-sj)/sj > 4/math.Sqrt(256) {
				misses++
			}
		}
		if misses > 2 {
			t.Errorf("%s: %d/%d trials outside the 4/√S1 bound (expected ≤ 2)", name, misses, trials)
		}
	}
}

// TestFastTugOfWarDeleteRoundTrip: deleting everything that was inserted
// must return the sketch exactly to zero (linearity), and a partial delete
// must equal a direct build of the surviving multiset.
func TestFastTugOfWarDeleteRoundTrip(t *testing.T) {
	cfg := Config{S1: 64, S2: 4, Seed: 11}
	ft, err := NewFastTugOfWar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(7)
	vals := make([]uint64, 5000)
	for i := range vals {
		vals[i] = r.Uint64n(300)
	}
	for _, v := range vals {
		ft.Insert(v)
	}

	// Delete the second half; compare against a fresh sketch of the first.
	for _, v := range vals[2500:] {
		if err := ft.Delete(v); err != nil {
			t.Fatal(err)
		}
	}
	direct, _ := NewFastTugOfWar(cfg)
	for _, v := range vals[:2500] {
		direct.Insert(v)
	}
	a, b := ft.Counters(), direct.Counters()
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("counter %d after partial delete: %d vs direct %d", k, a[k], b[k])
		}
	}

	// Delete the rest: everything must be exactly zero.
	if err := ft.DeleteBatch(vals[:2500]); err != nil {
		t.Fatal(err)
	}
	for k, z := range ft.Counters() {
		if z != 0 {
			t.Fatalf("counter %d nonzero after full delete: %d", k, z)
		}
	}
	if ft.Estimate() != 0 || ft.Len() != 0 {
		t.Fatalf("estimate %v, len %d after full delete", ft.Estimate(), ft.Len())
	}
}

// TestFastTugOfWarBatchMatchesLoop: batch paths must be bit-identical to
// one-at-a-time updates.
func TestFastTugOfWarBatchMatchesLoop(t *testing.T) {
	cfg := Config{S1: 32, S2: 4, Seed: 5}
	batch, _ := NewFastTugOfWar(cfg)
	loop, _ := NewFastTugOfWar(cfg)
	r := xrand.New(2)
	vals := make([]uint64, 3000)
	for i := range vals {
		vals[i] = r.Uint64n(64)
	}
	batch.InsertBatch(vals)
	for _, v := range vals {
		loop.Insert(v)
	}
	a, b := batch.Counters(), loop.Counters()
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("counter %d: batch %d vs loop %d", k, a[k], b[k])
		}
	}
	if batch.Len() != loop.Len() {
		t.Fatalf("len: batch %d vs loop %d", batch.Len(), loop.Len())
	}
}

// TestTugOfWarBatchMatchesLoop: the flat sketch's aggregated batch path
// must also be bit-identical to a plain loop (both the small-batch and the
// aggregated large-batch branch).
func TestTugOfWarBatchMatchesLoop(t *testing.T) {
	for _, n := range []int{8, 3000} { // below and above the aggregation cutoff
		cfg := Config{S1: 16, S2: 4, Seed: 9}
		batch, _ := NewTugOfWar(cfg)
		loop, _ := NewTugOfWar(cfg)
		r := xrand.New(4)
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = r.Uint64n(50)
		}
		batch.InsertBatch(vals)
		for _, v := range vals {
			loop.Insert(v)
		}
		a, b := batch.Counters(), loop.Counters()
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("n=%d counter %d: batch %d vs loop %d", n, k, a[k], b[k])
			}
		}
		if err := batch.DeleteBatch(vals); err != nil {
			t.Fatal(err)
		}
		for k, z := range batch.Counters() {
			if z != 0 {
				t.Fatalf("n=%d counter %d nonzero after DeleteBatch: %d", n, k, z)
			}
		}
	}
}

// TestFastTugOfWarSetFrequenciesMatchesStreaming: offline loading is
// bit-identical to streaming (linearity).
func TestFastTugOfWarSetFrequenciesMatchesStreaming(t *testing.T) {
	cfg := Config{S1: 64, S2: 4, Seed: 21}
	stream, _ := NewFastTugOfWar(cfg)
	offline, _ := NewFastTugOfWar(cfg)
	r := xrand.New(13)
	freq := map[uint64]int64{}
	for i := 0; i < 4000; i++ {
		v := r.Uint64n(200)
		stream.Insert(v)
		freq[v]++
	}
	offline.SetFrequencies(freq)
	a, b := stream.Counters(), offline.Counters()
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("counter %d: streaming %d vs SetFrequencies %d", k, a[k], b[k])
		}
	}
	if stream.Len() != offline.Len() {
		t.Fatalf("len: %d vs %d", stream.Len(), offline.Len())
	}
}

func TestFastTugOfWarMerge(t *testing.T) {
	cfg := Config{S1: 32, S2: 4, Seed: 13}
	a, _ := NewFastTugOfWar(cfg)
	b, _ := NewFastTugOfWar(cfg)
	whole, _ := NewFastTugOfWar(cfg)
	r := xrand.New(9)
	for i := 0; i < 10000; i++ {
		v := r.Uint64n(200)
		whole.Insert(v)
		if i%2 == 0 {
			a.Insert(v)
		} else {
			b.Insert(v)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Estimate() != whole.Estimate() {
		t.Fatal("merged estimate differs from whole-stream estimate")
	}
	other, _ := NewFastTugOfWar(Config{S1: 32, S2: 4, Seed: 14})
	if err := a.Merge(other); err == nil {
		t.Fatal("merge across configs accepted")
	}
}

func TestFastTugOfWarSerializationRoundTrip(t *testing.T) {
	ft, _ := NewFastTugOfWar(Config{S1: 8, S2: 3, Seed: 77})
	r := xrand.New(6)
	for i := 0; i < 2000; i++ {
		ft.Insert(r.Uint64n(100))
	}
	blob, err := ft.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back FastTugOfWar
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if back.Estimate() != ft.Estimate() || back.Len() != ft.Len() {
		t.Fatal("round trip changed the sketch")
	}
	// The restored sketch must keep tracking (hash family re-derived).
	back.Insert(1)
	ft.Insert(1)
	if back.Estimate() != ft.Estimate() {
		t.Fatal("restored sketch diverged on further updates")
	}

	// Truncations and bit flips must be rejected, as for TugOfWar.
	for cut := 0; cut < len(blob); cut++ {
		var tr FastTugOfWar
		if err := tr.UnmarshalBinary(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	mut := append([]byte(nil), blob...)
	mut[10] ^= 1
	var tr FastTugOfWar
	if err := tr.UnmarshalBinary(mut); err == nil {
		t.Fatal("bit flip accepted")
	}

	// A flat tug-of-war blob must be rejected by magic.
	tw, _ := NewTugOfWar(Config{S1: 8, S2: 3, Seed: 77})
	twBlob, _ := tw.MarshalBinary()
	if err := tr.UnmarshalBinary(twBlob); err == nil {
		t.Fatal("flat tug-of-war blob accepted as fast blob")
	}
}

// TestFastTugOfWarMemoryWords pins the storage accounting.
func TestFastTugOfWarMemoryWords(t *testing.T) {
	ft, _ := NewFastTugOfWar(Config{S1: 128, S2: 8, Seed: 1})
	if ft.MemoryWords() != 1024 {
		t.Fatalf("MemoryWords = %d, want 1024", ft.MemoryWords())
	}
}

// goldenRowCounts pins, for sketches whose row counts are not a multiple
// of eight (a partial hash group) or span several groups, the SHA-256 of
// the blob and the bits of the plain and skimmed estimates after one
// stream fed through InsertBatch, per-op Insert and DeleteBatch.
var goldenRowCounts = map[int]struct {
	blob           string
	plain, skimmed uint64
}{
	9:  {"b6666b4f4f9b54d1b95175291a97fa7b9453566d0079c5db84af474fbc45c414", 0x4118873000000000, 0x4118882000000000},
	64: {"c126b492c97a2f441a89ff3ddc7180716d00b3be443a591c9647d566909bbee8", 0x411b63c400000000, 0x411b64b400000000},
}

func TestFastTugOfWarGoldenRowCounts(t *testing.T) {
	for s2, want := range goldenRowCounts {
		sk, err := NewFastTugOfWar(Config{S1: 64, S2: s2, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		hh, err := NewSpaceSaving(24, 42)
		if err != nil {
			t.Fatal(err)
		}
		r := xrand.New(9)
		vals := make([]uint64, 6000)
		for i := range vals {
			vals[i] = r.Uint64n(4096)
			if i%2 == 0 {
				vals[i] %= 16 // sixteen heavy hitters to skim
			}
		}
		sk.InsertBatch(vals[:4000])
		for _, v := range vals[4000:] {
			sk.Insert(v)
		}
		if err := sk.DeleteBatch(vals[:700]); err != nil {
			t.Fatal(err)
		}
		for _, v := range vals[700:] {
			hh.Insert(v)
		}
		if len(hh.SkimFrequencies()) < 10 {
			t.Fatalf("S2=%d: the table skims %d values", s2, len(hh.SkimFrequencies()))
		}
		data, _ := sk.MarshalBinary()
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want.blob {
			t.Errorf("S2=%d: blob sha256 %s, pinned %s", s2, got, want.blob)
		}
		if got := math.Float64bits(sk.Estimate()); got != want.plain {
			t.Errorf("S2=%d: estimate bits %#x, pinned %#x", s2, got, want.plain)
		}
		if got := math.Float64bits(SkimmedEstimate(&sk.Grid, hh)); got != want.skimmed {
			t.Errorf("S2=%d: skimmed estimate bits %#x, pinned %#x", s2, got, want.skimmed)
		}
	}
}

// BenchmarkNodeShapeUpdate times a node's synopsis work per ingested row:
// two grids of amsd's default shape, the 8×128 join signature and the
// 1024×8 sketch, fed 128-key batches through InsertBatch. ns/op is per
// row. The keys are a shuffle of 2^20 distinct values or a zipf(1.0)
// draw over them. Under 8x1152/ the same keys feed one 8×1152 grid: the
// one signature that would answer both joins and self-joins in the
// default pair's 9,216 words. Its width is not a power of two, so it
// hashes on the wide layout (hash.NewTab4Rows).
func BenchmarkNodeShapeUpdate(b *testing.B) {
	const keys, batch = 1 << 20, 128
	shuffled := make([]uint64, keys)
	for i, p := range xrand.New(1).Perm(keys) {
		shuffled[i] = uint64(p)
	}
	z, err := dist.NewZipf(1.0, keys, 1)
	if err != nil {
		b.Fatal(err)
	}
	keySets := []struct {
		name string
		vals []uint64
	}{{"shuffled", shuffled}, {"zipf1.0", dist.Take(z, keys)}}
	run := func(b *testing.B, vals []uint64, cfgs ...Config) {
		var grids []*FastTugOfWar
		for _, cfg := range cfgs {
			g, err := NewFastTugOfWar(cfg)
			if err != nil {
				b.Fatal(err)
			}
			grids = append(grids, g)
		}
		b.ResetTimer()
		for done := 0; done < b.N; done += batch {
			off := done % keys
			vs := vals[off : off+batch]
			for _, g := range grids {
				g.InsertBatch(vs)
			}
		}
	}
	for _, c := range keySets {
		b.Run(c.name, func(b *testing.B) {
			run(b, c.vals, Config{S1: 128, S2: 8, Seed: 1}, Config{S1: 1024, S2: 8, Seed: 2})
		})
	}
	b.Run("8x1152", func(b *testing.B) {
		for _, c := range keySets {
			b.Run(c.name, func(b *testing.B) { run(b, c.vals, Config{S1: 1152, S2: 8, Seed: 1}) })
		}
	})
}
