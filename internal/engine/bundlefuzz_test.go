package engine

import (
	"bytes"
	"testing"

	"amstrack/internal/join"
)

// FuzzRelationBundle drives RelationBundle.UnmarshalBinary with arbitrary
// bytes — valid bundles of both signature schemes, truncations, bit
// flips, and foreign-magic frames — and checks the exchange-path contract the amsd
// upload endpoints depend on:
//
//   - corrupt, truncated, or foreign input must ERROR, never panic;
//   - an accepted bundle must be internally consistent (signature
//     present, estimates computable) and re-marshal to the EXACT input
//     bytes — the encoding is canonical, which is what lets tests assert
//     merged-vs-single bit-identity on the wire format.
//
// It is registered alongside internal/oplog's FuzzReader; CI runs both
// for a short fixed budget.
func FuzzRelationBundle(f *testing.F) {
	mk := func(opts Options) []byte {
		e, err := New(opts)
		if err != nil {
			f.Fatal(err)
		}
		r, err := e.Define("r")
		if err != nil {
			f.Fatal(err)
		}
		r.InsertBatch([]uint64{1, 2, 3, 4, 5, 6, 7, 1, 2, 3})
		_ = r.DeleteBatch([]uint64{1, 2})
		data, err := e.ExportRelation("r")
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	mkSkim := func(opts Options) []byte {
		e, err := New(opts)
		if err != nil {
			f.Fatal(err)
		}
		r, err := e.DefineSchema("r", Schema{SkimHitters: 6})
		if err != nil {
			f.Fatal(err)
		}
		r.InsertBatch([]uint64{1, 2, 3, 4, 5, 6, 7, 1, 2, 3, 1, 1})
		_ = r.DeleteBatch([]uint64{1, 2})
		data, err := e.ExportRelation("r")
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	fast := mk(Options{SignatureWords: 64, SignatureRows: 4, Seed: 3, SketchS1: 16, SketchS2: 2})
	// Engines keep only the fast signature, but the codec still decodes
	// the paper's flat one: that seed is built by hand.
	flat := flatBundle(f, 64, 3, []uint64{1, 2, 3, 4, 5, 6, 7, 1, 2, 3}, []uint64{1, 2}, nil)
	skim := mkSkim(Options{SignatureWords: 64, SignatureRows: 4, Seed: 3, SketchS1: 16, SketchS2: 2, Shards: 2})
	f.Add([]byte{})
	f.Add(fast)
	f.Add(flat)
	f.Add(skim)
	for _, cut := range []int{8, len(skim) / 2, len(skim) - 1} {
		f.Add(append([]byte(nil), skim[:cut]...))
	}
	for _, cut := range []int{1, 4, 8, len(fast) / 2, len(fast) - 1} {
		f.Add(append([]byte(nil), fast[:cut]...))
	}
	flipped := append([]byte(nil), fast...)
	flipped[0] ^= 0xFF // foreign magic
	f.Add(flipped)
	// An inner signature blob without the bundle envelope.
	e, _ := New(Options{SignatureWords: 32, Seed: 1, NoSketch: true})
	r, _ := e.Define("x")
	r.Insert(5)
	sig := r.Cut().Sig
	sigBlob, _ := sig.MarshalBinary()
	f.Add(sigBlob)
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		var b RelationBundle
		if err := b.UnmarshalBinary(data); err != nil {
			return // an error is always an acceptable answer; a panic is not
		}
		if b.Sig == nil {
			t.Fatal("accepted bundle with nil signature")
		}
		_ = b.SelfJoinEstimate()
		again, err := b.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of accepted bundle failed: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted bundle is not canonical: %d bytes in, %d re-marshaled", len(data), len(again))
		}
	})
}

// flatBundle marshals a bundle whose signature is the paper's flat one
// over join.NewFamily(k, seed), fed ins then dels, with no sketch, an
// unchanged chain section, and the Seq an engine would have counted.
func flatBundle(f *testing.F, k int, seed uint64, ins, dels []uint64, chain *ChainBundle) []byte {
	f.Helper()
	fam, err := join.NewFamily(k, seed)
	if err != nil {
		f.Fatal(err)
	}
	sig := fam.NewSignature()
	sig.InsertBatch(ins)
	if err := sig.DeleteBatch(dels); err != nil {
		f.Fatal(err)
	}
	b := RelationBundle{Sig: sig, Rows: sig.Len(), Chain: chain, Seq: uint64(len(ins) + len(dels))}
	data, err := b.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	return data
}
