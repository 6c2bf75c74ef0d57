package engine

import (
	"errors"
	"testing"

	"amstrack/internal/xrand"
)

// testOpts is a small fast-scheme engine configuration shared by the
// bundle tests; engines built from it are mutually exchange-compatible.
func testOpts() Options {
	return Options{SignatureWords: 256, SignatureRows: 4, Seed: 99, SketchS1: 128, SketchS2: 4}
}

func fillRelation(t *testing.T, e *Engine, name string, seed uint64, n int) []uint64 {
	t.Helper()
	r, err := e.Define(name)
	if err != nil {
		t.Fatal(err)
	}
	rnd := xrand.New(seed)
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = rnd.Uint64n(200)
	}
	r.InsertBatch(vs)
	return vs
}

// TestBundleRoundTrip: export → import on a second engine reproduces the
// relation exactly — join estimates against a third relation, self-join
// estimates, and row counts are bit-identical.
func TestBundleRoundTrip(t *testing.T) {
	a, err := New(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	fillRelation(t, a, "orders", 1, 5000)
	fillRelation(t, a, "items", 2, 5000)

	blob, err := a.ExportRelation("orders")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ExportRelation("nope"); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("export unknown: %v", err)
	}

	b, err := New(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	fillRelation(t, b, "items", 2, 5000)
	if err := b.ImportRelation("orders", blob); err != nil {
		t.Fatal(err)
	}
	if err := b.ImportRelation("orders", blob); !errors.Is(err, ErrAlreadyDefined) {
		t.Fatalf("duplicate import: %v", err)
	}

	jeA, err := a.EstimateJoin("orders", "items")
	if err != nil {
		t.Fatal(err)
	}
	jeB, err := b.EstimateJoin("orders", "items")
	if err != nil {
		t.Fatal(err)
	}
	if jeA != jeB {
		t.Fatalf("imported estimate %+v != source %+v", jeB, jeA)
	}
	ra, _ := a.Get("orders")
	rb, _ := b.Get("orders")
	if ra.Len() != rb.Len() {
		t.Fatalf("imported Len %d != %d", rb.Len(), ra.Len())
	}
}

// TestBundleMergePartitions: two engines each ingest half of a relation;
// merging the halves (engine-side MergeRelation and bundle-side Merge)
// is bit-identical to one engine ingesting everything.
func TestBundleMergePartitions(t *testing.T) {
	whole, err := New(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	all := fillRelation(t, whole, "r", 7, 8000)

	parts := make([]*Engine, 2)
	for i := range parts {
		if parts[i], err = New(testOpts()); err != nil {
			t.Fatal(err)
		}
		r, err := parts[i].Define("r")
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range all {
			if j%2 == i {
				r.Insert(v)
			}
		}
	}
	blob0, err := parts[0].ExportRelation("r")
	if err != nil {
		t.Fatal(err)
	}
	blob1, err := parts[1].ExportRelation("r")
	if err != nil {
		t.Fatal(err)
	}

	// Engine-side: fold partition 1 into partition 0's engine.
	if err := parts[0].MergeRelation("r", blob1); err != nil {
		t.Fatal(err)
	}
	mergedBlob, err := parts[0].ExportRelation("r")
	if err != nil {
		t.Fatal(err)
	}
	wholeBlob, err := whole.ExportRelation("r")
	if err != nil {
		t.Fatal(err)
	}
	if string(mergedBlob) != string(wholeBlob) {
		t.Fatal("merged bundle bytes differ from single-ingest bundle")
	}

	// Bundle-side: coordinator merge of the two shipped halves.
	var b0, b1 RelationBundle
	if err := b0.UnmarshalBinary(blob0); err != nil {
		t.Fatal(err)
	}
	if err := b1.UnmarshalBinary(blob1); err != nil {
		t.Fatal(err)
	}
	if err := b0.Merge(&b1); err != nil {
		t.Fatal(err)
	}
	coordBlob, err := b0.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(coordBlob) != string(wholeBlob) {
		t.Fatal("coordinator-merged bundle bytes differ from single-ingest bundle")
	}

	if err := parts[0].MergeRelation("nope", blob1); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("merge unknown: %v", err)
	}
}

// TestBundleIncompatible: mismatched seeds or shapes are ErrIncompatible,
// and corrupt blobs are decode errors, not panics.
func TestBundleIncompatible(t *testing.T) {
	a, _ := New(testOpts())
	fillRelation(t, a, "r", 3, 100)

	othOpts := testOpts()
	othOpts.Seed = 100
	oth, _ := New(othOpts)
	fillRelation(t, oth, "r", 3, 100)
	foreign, err := oth.ExportRelation("r")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.MergeRelation("r", foreign); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("seed mismatch: %v", err)
	}
	if err := a.ImportRelation("r2", foreign); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("seed mismatch on import: %v", err)
	}
	var foreignBundle RelationBundle
	if err := foreignBundle.UnmarshalBinary(foreign); err != nil {
		t.Fatal(err)
	}
	ar, _ := a.Get("r")
	if _, err := EstimateJoinBundles(ar.Cut(), &foreignBundle); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("seed mismatch on estimate: %v", err)
	}

	// Sketch presence must match in both directions.
	nsOpts := testOpts()
	nsOpts.NoSketch = true
	ns, _ := New(nsOpts)
	fillRelation(t, ns, "r", 3, 100)
	sketchless, err := ns.ExportRelation("r")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.MergeRelation("r", sketchless); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("sketchless merge: %v", err)
	}
	sketchful, err := a.ExportRelation("r")
	if err != nil {
		t.Fatal(err)
	}
	if err := ns.MergeRelation("r", sketchful); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("sketch-carrying merge into NoSketch engine: %v", err)
	}

	// Merging into a zero-value bundle errors instead of panicking.
	var empty RelationBundle
	var decoded RelationBundle
	if err := decoded.UnmarshalBinary(sketchful); err != nil {
		t.Fatal(err)
	}
	if err := empty.Merge(&decoded); err == nil {
		t.Fatal("merge into zero-value bundle accepted")
	}
	if err := decoded.Merge(&RelationBundle{}); err == nil {
		t.Fatal("merge of empty bundle accepted")
	}

	good, _ := a.ExportRelation("r")
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)/2] ^= 0x40
	if err := a.MergeRelation("r", corrupt); err == nil || errors.Is(err, ErrIncompatible) {
		t.Fatalf("corrupt blob: %v", err)
	}
	var b RelationBundle
	if err := b.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Fatal("short blob accepted")
	}
}

// TestBundleDurableImport: imported counters survive a restart via the
// post-import checkpoint even though the oplog never saw them.
func TestBundleDurableImport(t *testing.T) {
	src, _ := New(testOpts())
	fillRelation(t, src, "r", 5, 4000)
	blob, err := src.ExportRelation("r")
	if err != nil {
		t.Fatal(err)
	}

	opts := testOpts()
	opts.Dir = t.TempDir()
	dur, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := dur.ImportRelation("r", blob); err != nil {
		t.Fatal(err)
	}
	// Post-import stream rides the oplog as usual.
	r, _ := dur.Get("r")
	r.InsertBatch([]uint64{1, 2, 3})
	want := r.Len()
	wantSJ := r.SelfJoinEstimate()
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}

	back, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	rb, err := back.Get("r")
	if err != nil {
		t.Fatal(err)
	}
	if rb.Len() != want {
		t.Fatalf("recovered Len = %d, want %d", rb.Len(), want)
	}
	if got := rb.SelfJoinEstimate(); got != wantSJ {
		t.Fatalf("recovered SJ = %g, want %g", got, wantSJ)
	}
}
