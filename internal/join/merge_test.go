package join

import (
	"bytes"
	"testing"

	"amstrack/internal/xrand"
)

// Merge-exactness property for the join signatures: a random
// insert/delete stream partitioned across 2–5 signatures merges into a
// signature bit-identical (estimates AND serialized bytes) to
// single-signature ingest — the linearity the multi-node exchange path
// depends on. Chain signatures carry the same property per relation of
// the three-way chain.

func sigOps(r *xrand.Rand, n int, domain uint64) (values []uint64, deletes []bool) {
	var live []uint64
	values = make([]uint64, n)
	deletes = make([]bool, n)
	for i := 0; i < n; i++ {
		if len(live) > 0 && r.Intn(4) == 0 {
			j := r.Intn(len(live))
			values[i], deletes[i] = live[j], true
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		v := r.Uint64n(domain)
		values[i] = v
		live = append(live, v)
	}
	return values, deletes
}

// runSigMergeProperty partitions one relation's stream across parts
// signatures built by mk, folds them into a fresh one with Merge, and checks
// bit-identity against single ingest — both standalone (self-join, bytes)
// and as one side of a pairwise join against other.
func runSigMergeProperty(t *testing.T, trial int, mk func() Signature, other Signature) {
	t.Helper()
	r := xrand.New(uint64(7000 + trial))
	values, dels := sigOps(r, 3000, 400)
	parts := 2 + r.Intn(4)

	single := mk()
	partSigs := make([]Signature, parts)
	for i := range partSigs {
		partSigs[i] = mk()
	}
	for i, v := range values {
		target := partSigs[r.Intn(parts)]
		if dels[i] {
			if err := single.Delete(v); err != nil {
				t.Fatal(err)
			}
			if err := target.Delete(v); err != nil {
				t.Fatal(err)
			}
		} else {
			single.Insert(v)
			target.Insert(v)
		}
	}
	merged := mk()
	for _, p := range partSigs {
		if err := merged.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	if merged.Len() != single.Len() {
		t.Fatalf("trial %d: merged Len %d != single %d", trial, merged.Len(), single.Len())
	}
	if got, want := merged.SelfJoinEstimate(), single.SelfJoinEstimate(); got != want {
		t.Fatalf("trial %d: merged SJ %v != single %v", trial, got, want)
	}
	em, err := EstimateJoin(merged, other)
	if err != nil {
		t.Fatal(err)
	}
	es, err := EstimateJoin(single, other)
	if err != nil {
		t.Fatal(err)
	}
	if em != es {
		t.Fatalf("trial %d: merged join estimate %v != single %v", trial, em, es)
	}
	mb, err := merged.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := single.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mb, sb) {
		t.Fatalf("trial %d (%d parts): merged bytes differ from single-ingest bytes", trial, parts)
	}
}

func TestMergeExactnessTWSignature(t *testing.T) {
	fam, err := NewFamily(128, 31)
	if err != nil {
		t.Fatal(err)
	}
	other := fam.NewSignature()
	other.InsertBatch(dataStream(77, 2000, 400))
	for trial := 0; trial < 6; trial++ {
		runSigMergeProperty(t, trial, func() Signature { return fam.NewSignature() }, other)
	}
}

func TestMergeExactnessFastTWSignature(t *testing.T) {
	fam, err := NewFastFamily(64, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	other := fam.NewSignature()
	other.InsertBatch(dataStream(78, 2000, 400))
	for trial := 0; trial < 6; trial++ {
		runSigMergeProperty(t, trial, func() Signature { return fam.NewSignature() }, other)
	}
}

func dataStream(seed uint64, n int, domain uint64) []uint64 {
	r := xrand.New(seed)
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = r.Uint64n(domain)
	}
	return vs
}

// TestMergeExactnessChain partitions all three relations of a chain join
// F ⋈ G ⋈ H across 2–5 synopses each and checks the merged chain
// estimate and serialized bytes are bit-identical to single ingest.
func TestMergeExactnessChain(t *testing.T) {
	fam, err := NewChainFamily(128, 41)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 6; trial++ {
		r := xrand.New(uint64(9000 + trial))
		parts := 2 + r.Intn(4)

		singleF, _ := fam.NewEndSignature(0)
		singleH, _ := fam.NewEndSignature(1)
		singleG := fam.NewMiddleSignature()
		partF := make([]*ChainEndSignature, parts)
		partH := make([]*ChainEndSignature, parts)
		partG := make([]*ChainMiddleSignature, parts)
		for i := 0; i < parts; i++ {
			partF[i], _ = fam.NewEndSignature(0)
			partH[i], _ = fam.NewEndSignature(1)
			partG[i] = fam.NewMiddleSignature()
		}
		for i := 0; i < 2000; i++ {
			a, b := r.Uint64n(60), r.Uint64n(60)
			p := r.Intn(parts)
			switch i % 4 {
			case 0:
				singleF.Insert(a)
				partF[p].Insert(a)
			case 1:
				singleH.Insert(b)
				partH[p].Insert(b)
			case 2:
				singleG.Insert(a, b)
				partG[p].Insert(a, b)
			case 3: // a deletion leg on the middle relation
				singleG.Insert(a, b)
				partG[p].Insert(a, b)
				q := r.Intn(parts)
				if err := singleG.Delete(a, b); err != nil {
					t.Fatal(err)
				}
				if err := partG[q].Delete(a, b); err != nil {
					t.Fatal(err)
				}
			}
		}
		mergedF, _ := fam.NewEndSignature(0)
		mergedH, _ := fam.NewEndSignature(1)
		mergedG := fam.NewMiddleSignature()
		for i := 0; i < parts; i++ {
			if err := mergedF.Merge(partF[i]); err != nil {
				t.Fatal(err)
			}
			if err := mergedH.Merge(partH[i]); err != nil {
				t.Fatal(err)
			}
			if err := mergedG.Merge(partG[i]); err != nil {
				t.Fatal(err)
			}
		}
		em, err := EstimateChainJoin(mergedF, mergedG, mergedH)
		if err != nil {
			t.Fatal(err)
		}
		es, err := EstimateChainJoin(singleF, singleG, singleH)
		if err != nil {
			t.Fatal(err)
		}
		if em != es {
			t.Fatalf("trial %d: merged chain estimate %v != single %v", trial, em, es)
		}
		for _, pair := range []struct {
			m, s interface{ MarshalBinary() ([]byte, error) }
		}{{mergedF, singleF}, {mergedG, singleG}, {mergedH, singleH}} {
			mb, err := pair.m.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			sb, err := pair.s.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mb, sb) {
				t.Fatalf("trial %d: merged chain bytes differ from single-ingest bytes", trial)
			}
		}
	}
}

// TestChainSerializationRoundTrip: chain signatures survive the wire —
// deserialized copies re-estimate identically and merge with local ones
// (family compatibility is by value, not pointer).
func TestChainSerializationRoundTrip(t *testing.T) {
	fam, _ := NewChainFamily(64, 43)
	f, _ := fam.NewEndSignature(0)
	h, _ := fam.NewEndSignature(1)
	g := fam.NewMiddleSignature()
	r := xrand.New(50)
	for i := 0; i < 500; i++ {
		f.Insert(r.Uint64n(40))
		h.Insert(r.Uint64n(40))
		g.Insert(r.Uint64n(40), r.Uint64n(40))
	}
	want, err := EstimateChainJoin(f, g, h)
	if err != nil {
		t.Fatal(err)
	}

	fb, _ := f.MarshalBinary()
	gb, _ := g.MarshalBinary()
	hb, _ := h.MarshalBinary()
	var f2, h2 ChainEndSignature
	var g2 ChainMiddleSignature
	if err := f2.UnmarshalBinary(fb); err != nil {
		t.Fatal(err)
	}
	if err := g2.UnmarshalBinary(gb); err != nil {
		t.Fatal(err)
	}
	if err := h2.UnmarshalBinary(hb); err != nil {
		t.Fatal(err)
	}
	got, err := EstimateChainJoin(&f2, &g2, &h2)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round-tripped chain estimate %v != %v", got, want)
	}
	// Cross-merge: wire copy into local.
	if err := f.Merge(&f2); err != nil {
		t.Fatal(err)
	}
	if f.Len() != 2*f2.Len() {
		t.Fatalf("merged Len = %d", f.Len())
	}
	// Corrupt and foreign-magic blobs error cleanly.
	bad := append([]byte(nil), fb...)
	bad[len(bad)/2] ^= 1
	if err := f2.UnmarshalBinary(bad); err == nil {
		t.Fatal("corrupt chain blob accepted")
	}
	if err := g2.UnmarshalBinary(fb); err == nil {
		t.Fatal("end-signature blob accepted as middle signature")
	}
}

// TestMergeSignaturesErrors: Signature.Merge rejects mixed schemes,
// foreign families and a nil signature.
func TestMergeSignaturesErrors(t *testing.T) {
	flatA, _ := NewFamily(32, 1)
	flatB, _ := NewFamily(32, 2)
	flatC, _ := NewFamily(64, 1)
	fast, _ := NewFastFamily(16, 2, 1)
	if err := flatA.NewSignature().Merge(fast.NewSignature()); err == nil {
		t.Fatal("mixed schemes accepted")
	}
	if err := fast.NewSignature().Merge(flatA.NewSignature()); err == nil {
		t.Fatal("mixed schemes accepted (fast first)")
	}
	if err := flatA.NewSignature().Merge(flatB.NewSignature()); err == nil {
		t.Fatal("different seeds accepted")
	}
	if err := flatA.NewSignature().Merge(flatC.NewSignature()); err == nil {
		t.Fatal("different k accepted")
	}
	if err := flatA.NewSignature().Merge(nil); err == nil {
		t.Fatal("nil signature accepted")
	}
	// Chain variants: attribute and family mismatches.
	chA, _ := NewChainFamily(32, 1)
	chB, _ := NewChainFamily(32, 2)
	e0, _ := chA.NewEndSignature(0)
	e1, _ := chA.NewEndSignature(1)
	if err := e0.Merge(e1); err == nil {
		t.Fatal("chain ends with different attributes merged")
	}
	e0b, _ := chB.NewEndSignature(0)
	if err := e0.Merge(e0b); err == nil {
		t.Fatal("chain ends from different families merged")
	}
	if err := chA.NewMiddleSignature().Merge(chB.NewMiddleSignature()); err == nil {
		t.Fatal("chain middles from different families merged")
	}
	// UnmarshalSignature rejects junk and non-signature magics.
	if _, err := UnmarshalSignature([]byte{1, 2}); err == nil {
		t.Fatal("short blob accepted")
	}
	eb, _ := e0.MarshalBinary()
	if _, err := UnmarshalSignature(eb); err == nil {
		t.Fatal("chain blob accepted as pairwise signature")
	}
	// And dispatches both real schemes.
	fs := fast.NewSignature()
	fs.Insert(9)
	fsb, _ := fs.MarshalBinary()
	got, err := UnmarshalSignature(fsb)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.(*FastTWSignature); !ok || got.Len() != 1 {
		t.Fatalf("dispatched %T, Len %d", got, got.Len())
	}
	ts := flatA.NewSignature()
	ts.Insert(9)
	tsb, _ := ts.MarshalBinary()
	if got, err := UnmarshalSignature(tsb); err != nil {
		t.Fatal(err)
	} else if _, ok := got.(*TWSignature); !ok {
		t.Fatalf("dispatched %T", got)
	}
}
