package engine

import (
	"bytes"
	"testing"
)

// FuzzChainBundle drives RelationBundle.UnmarshalBinary with chain-
// bearing inputs — valid version-2 bundles, truncations, bit flips,
// foreign-magic chain sections, and a standalone chain signature blob —
// and checks the same exchange-path contract FuzzRelationBundle pins for
// the pairwise half:
//
//   - corrupt, truncated, or foreign chain sections must ERROR, never
//     panic;
//   - an accepted bundle must be internally consistent (chain section
//     matching its schema's declarations, one chain family throughout)
//     and re-marshal to the EXACT input bytes — chainless bundles as
//     version-1 frames, chain-bearing ones as version 2 — so the
//     canonical-encoding property survives the format upgrade.
//
// Registered in CI's fuzz job next to FuzzRelationBundle.
func FuzzChainBundle(f *testing.F) {
	mkChain := func(opts Options) []byte {
		e, err := New(opts)
		if err != nil {
			f.Fatal(err)
		}
		r, err := e.DefineSchema("g", Schema{
			Attrs: []string{"a", "b"},
			EndA:  []string{"a"}, EndB: []string{"b"},
			Middle: [][2]string{{"a", "b"}},
		})
		if err != nil {
			f.Fatal(err)
		}
		r.InsertTupleBatch([][]uint64{{1, 2}, {3, 4}, {1, 4}, {5, 2}, {1, 2}})
		if err := r.DeleteTupleBatch([][]uint64{{1, 2}}); err != nil {
			f.Fatal(err)
		}
		data, err := e.ExportRelation("g")
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	chainFast := mkChain(Options{SignatureWords: 32, ChainWords: 8, Seed: 3, SketchS1: 8, SketchS2: 2})
	// A flat-signature seed: the chain section of an engine's export
	// under the paper's flat signature, built by hand.
	var cb RelationBundle
	if err := cb.UnmarshalBinary(mkChain(Options{SignatureWords: 16, ChainWords: 4, Seed: 3, NoSketch: true})); err != nil {
		f.Fatal(err)
	}
	chainFlat := flatBundle(f, 16, 3, []uint64{1, 3, 1, 5, 1}, []uint64{1}, cb.Chain)
	f.Add([]byte{})
	f.Add(chainFast)
	f.Add(chainFlat)
	for _, cut := range []int{1, 8, len(chainFast) / 2, len(chainFast) - 1} {
		f.Add(append([]byte(nil), chainFast[:cut]...))
	}
	flipped := append([]byte(nil), chainFast...)
	flipped[0] ^= 0xFF // foreign magic
	f.Add(flipped)
	// A chainless v1 bundle, to cover the version boundary.
	e, _ := New(Options{SignatureWords: 16, Seed: 1, NoSketch: true})
	r, _ := e.Define("x")
	r.Insert(5)
	v1, _ := e.ExportRelation("x")
	f.Add(v1)
	// A standalone chain signature blob (an inner frame without the
	// bundle envelope).
	eng2, _ := New(Options{SignatureWords: 16, ChainWords: 4, Seed: 2})
	rg, _ := eng2.DefineSchema("g", Schema{Attrs: []string{"a", "b"}, Middle: [][2]string{{"a", "b"}}})
	rg.InsertTuple(7, 9)
	var rb RelationBundle
	full, _ := eng2.ExportRelation("g")
	if err := rb.UnmarshalBinary(full); err != nil {
		f.Fatal(err)
	}
	midBlob, _ := rb.Chain.Mids[0].MarshalBinary()
	f.Add(midBlob)
	f.Add(bytes.Repeat([]byte{0xA0}, 96))

	f.Fuzz(func(t *testing.T, data []byte) {
		var b RelationBundle
		if err := b.UnmarshalBinary(data); err == nil {
			if b.Sig == nil {
				t.Fatal("accepted bundle with nil signature")
			}
			_ = b.SelfJoinEstimate()
			if b.Chain != nil {
				plan := b.Chain.Schema.plan()
				if len(b.Chain.Ends) != len(plan.endAttr) || len(b.Chain.Mids) != len(plan.midA) {
					t.Fatal("accepted chain section inconsistent with its schema")
				}
			}
			again, err := b.MarshalBinary()
			if err != nil {
				t.Fatalf("re-marshal of accepted bundle failed: %v", err)
			}
			if !bytes.Equal(again, data) {
				t.Fatalf("accepted bundle is not canonical: %d bytes in, %d re-marshaled", len(data), len(again))
			}
		}
	})
}
