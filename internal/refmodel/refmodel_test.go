package refmodel

import (
	"testing"

	"amstrack/internal/join"
)

// TestDefaultShapes pins the documented defaults the model rebuilds on
// its own: fast-signature rows (largest of 8, 4, 2 dividing k with at
// least 16 buckets, else 1), the 1024×8 sketch, and ChainWords = k.
func TestDefaultShapes(t *testing.T) {
	for _, tc := range []struct{ k, rows int }{{128, 8}, {64, 4}, {32, 2}, {17, 1}} {
		m, err := New(Config{SignatureWords: tc.k, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Define("f", Schema{Attrs: []string{"a", "b"}, Middle: [][2]string{{"a", "b"}}})
		if err != nil {
			t.Fatal(err)
		}
		sig, ok := r.Signature().(*join.FastTWSignature)
		if !ok || sig.Family().Rows() != tc.rows || sig.MemoryWords() != tc.k {
			t.Fatalf("k=%d: signature %T rows %d, want fast with %d rows", tc.k, r.Signature(), sig.Family().Rows(), tc.rows)
		}
		if cfg := r.Sketch().Config(); cfg.S1 != 1024 || cfg.S2 != 8 {
			t.Fatalf("k=%d: sketch %dx%d, want 1024x8", tc.k, cfg.S1, cfg.S2)
		}
		if got := r.Mids()[0].MemoryWords(); got != tc.k {
			t.Fatalf("k=%d: chain words %d, want %d", tc.k, got, tc.k)
		}
	}
	noSketch, err := New(Config{SignatureWords: 16, NoSketch: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := noSketch.Define("f", Schema{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Signature().(*join.FastTWSignature); !ok || r.Sketch() != nil {
		t.Fatalf("NoSketch model built %T with sketch %v", r.Signature(), r.Sketch() != nil)
	}
}

// TestOpAccounting pins Seq (every op counts one, batches count per
// row), Rows, the histogram, and the invalid-delete report.
func TestOpAccounting(t *testing.T) {
	m, err := New(Config{SignatureWords: 64, Seed: 3, SketchS1: 16, SketchS2: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Define("f", Schema{})
	if err != nil {
		t.Fatal(err)
	}
	r.Insert(1)
	r.InsertBatch([]uint64{2, 2, 3})
	if !r.InsertOnly() {
		t.Fatal("insert-only relation reports deletes")
	}
	if err := r.DeleteBatch([]uint64{2, 9}); err == nil {
		t.Fatal("delete of an absent value not reported")
	}
	if r.Seq() != 6 || r.Rows() != 2 || r.Histogram().Len() != 3 || r.InsertOnly() {
		t.Fatalf("Seq %d Rows %d hist %d insertOnly %v, want 6, 2, 3, false",
			r.Seq(), r.Rows(), r.Histogram().Len(), r.InsertOnly())
	}
	if _, err := m.Define("f", Schema{}); err == nil {
		t.Fatal("duplicate relation accepted")
	}
	if _, err := m.Define("g", Schema{Attrs: []string{"a"}, EndA: []string{"zz"}}); err == nil {
		t.Fatal("unknown chain attribute accepted")
	}
	if err := r.DeleteTuple(1, 2); err == nil {
		t.Fatal("wrong-width tuple accepted")
	}
}
