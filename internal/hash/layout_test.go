package hash_test

import (
	"slices"
	"testing"

	"amstrack/internal/core"
	"amstrack/internal/engine"
	"amstrack/internal/hash"
	"amstrack/internal/xrand"
)

// scalarGrid is the grid update written out one row at a time on the
// scalar member: row r hashes v under the member on seeds[r], takes the
// multiply-shift bucket of the high 32 output bits and the low bit as
// the sign, and adds w·ε to that one counter.
type scalarGrid struct {
	rows []hash.Tab4
	s1   int
	z    []int64
}

func newScalarGrid(seeds []uint64, s1 int) *scalarGrid {
	g := &scalarGrid{s1: s1, z: make([]int64, len(seeds)*s1)}
	for _, seed := range seeds {
		g.rows = append(g.rows, hash.NewTab4(seed))
	}
	return g
}

func (g *scalarGrid) update(v uint64, w int64) {
	for r, h := range g.rows {
		x := h.Hash(v)
		b := int((x >> 32) * uint64(g.s1) >> 32)
		g.z[r*g.s1+b] += w * (int64(x&1)*2 - 1)
	}
}

// TestTab4x8GridMatchesScalar: at nine widths, powers of two and not, the
// counters a core.Grid on NewTab4Rows builds through InsertBatch, Delete
// and SetFrequencies equal the scalar update's. Nine rows make one full
// group and one partial group. Widths up to 2^15 that are powers of two
// hash on the narrow layout, the rest on the wide one; most other tests
// run power-of-two shapes, so this is the wide layout's main cover.
func TestTab4x8GridMatchesScalar(t *testing.T) {
	seeds := make([]uint64, 9)
	for r := range seeds {
		seeds[r] = xrand.Mix64(0x9e1d ^ uint64(r+1)*0xbf58476d1ce4e5b9)
	}
	r := xrand.New(0x5ca1a7)
	var ins, del []uint64
	for i := range 701 {
		v := r.Uint64()
		if i%3 != 0 {
			v %= 97 // repeats, so counters hold more than ±1
		}
		ins = append(ins, v)
		if i%5 == 0 {
			del = append(del, v)
		}
	}
	freq := map[uint64]int64{}
	for _, v := range ins {
		freq[v]++
	}
	for _, v := range del {
		freq[v]--
	}
	for _, width := range []int{1, 2, 128, 1024, 1 << 15, 3, 125, 1152, 1 << 16} {
		rows := hash.NewTab4Rows(seeds, width)
		wantWide := width&(width-1) != 0 || width > 1<<15
		for gi, grp := range rows {
			if grp.Wide() != wantWide {
				t.Fatalf("width %d: group %d wide = %v, want %v", width, gi, grp.Wide(), wantWide)
			}
		}
		ref := newScalarGrid(seeds, width)
		for _, v := range ins {
			ref.update(v, 1)
		}
		for _, v := range del {
			ref.update(v, -1)
		}

		g := core.NewGrid(rows)
		g.InsertBatch(ins)
		for _, v := range del {
			if err := g.Delete(v); err != nil {
				t.Fatal(err)
			}
		}
		set := core.NewGrid(rows)
		set.SetFrequencies(freq)
		for name, got := range map[string]*core.Grid{"InsertBatch+Delete": &g, "SetFrequencies": &set} {
			if got.Len() != int64(len(ins)-len(del)) {
				t.Fatalf("width %d, %s: Len %d, want %d", width, name, got.Len(), len(ins)-len(del))
			}
			if z := got.Counters(); !slices.Equal(z, ref.z) {
				i := 0
				for z[i] == ref.z[i] {
					i++
				}
				t.Fatalf("width %d, %s: counter %d (row %d, bucket %d) = %d, scalar update %d",
					width, name, i, i/width, i%width, z[i], ref.z[i])
			}
		}
	}
}

// TestTab4x8DefaultShapeBuildsNoWideGroup: a node at amsd's default shape
// (k = 1024 over 8 rows of 128 buckets, a 1024 × 8 sketch, seed 42)
// builds one narrow group for its signatures and one for its sketches,
// through ingest, skimmed and plain answers, a cut and a checkpoint blob
// decoded into a second engine, and no wide group.
func TestTab4x8DefaultShapeBuildsNoWideGroup(t *testing.T) {
	opts := engine.Options{SignatureWords: 1024, Seed: 42}
	open := func() *engine.Engine {
		e, err := engine.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if err := e.Close(); err != nil {
				t.Error(err)
			}
		})
		return e
	}
	narrow, wide := hash.Tab4x8Built(func() {
		e := open()
		if o := e.Options(); o.SignatureRows != 8 || o.SketchS1 != 1024 || o.SketchS2 != 8 {
			t.Fatalf("default shape %d rows, sketch %dx%d; want 8 rows, sketch 1024x8", o.SignatureRows, o.SketchS1, o.SketchS2)
		}
		f, err := e.Define("f")
		if err != nil {
			t.Fatal(err)
		}
		fs, err := e.DefineSchema("fs", engine.Schema{SkimHitters: 16})
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]uint64, 4096)
		for i := range vals {
			vals[i] = uint64(i % 300)
		}
		f.InsertBatch(vals)
		fs.InsertBatch(vals)
		if _, err := e.EstimateJoin("f", "fs"); err != nil {
			t.Fatal(err)
		}
		if _, estimator := fs.SelfJoinEstimateDetail(); estimator != "skimmed" {
			t.Fatalf("skimmed relation answered %q", estimator)
		}
		if _, err := fs.Cut().MarshalBinary(); err != nil {
			t.Fatal(err)
		}
		data, err := e.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := open().UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
	})
	if narrow != 2 || wide != 0 {
		t.Fatalf("a node at the default shape built %d narrow and %d wide groups, want 2 and 0", narrow, wide)
	}
}
