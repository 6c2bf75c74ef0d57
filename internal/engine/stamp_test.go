package engine

// Freshness-stamp coverage: Seq counts ops deterministically (exactly as
// the reference model counts them), the stamp is linear under partition merges, it survives
// checkpoint + replay recovery bit-exactly, and the version-3 bundle
// frame enforces its canonical-encoding rules.

import (
	"bytes"
	"testing"

	"amstrack/internal/blob"
)

func seqOpts() Options {
	return Options{SignatureWords: 128, Seed: 21, SketchS1: 64, SketchS2: 2, Shards: 2}
}

// TestSeqCountsOps pins the Seq semantics: every single-row mutation
// counts one, a batch of n counts n — and the bundle matches the
// reference model fed the same ops.
func TestSeqCountsOps(t *testing.T) {
	t.Run("absorber", func(t *testing.T) {
		e, err := New(seqOpts())
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Define("f")
		if err != nil {
			t.Fatal(err)
		}
		m := newModel(t, seqOpts())
		mr := modelDefine(t, m, "f", Schema{})
		for _, w := range []relWriter{r, mr} {
			w.Insert(1)
			w.Insert(2)
			w.InsertBatch([]uint64{3, 4, 5, 6})
			if err := w.Delete(3); err != nil {
				t.Fatal(err)
			}
			if err := w.DeleteBatch([]uint64{1, 2}); err != nil {
				t.Fatal(err)
			}
			w.InsertBatch(nil) // empty batches are not ops
		}
		st, err := e.StatRelation("f")
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(2 + 4 + 1 + 2); st.Seq != want {
			t.Fatalf("Seq = %d, want %d", st.Seq, want)
		}
		if st.Rows != 3 || st.Epoch != 0 {
			t.Fatalf("stat = %+v, want Rows=3 Epoch=0", st)
		}
		if got := r.Cut().Seq; got != st.Seq {
			t.Fatalf("Cut().Seq = %d, stat says %d", got, st.Seq)
		}
		blobBytes, err := e.ExportRelation("f")
		if err != nil {
			t.Fatal(err)
		}
		var b RelationBundle
		if err := b.UnmarshalBinary(blobBytes); err != nil {
			t.Fatal(err)
		}
		if b.Seq != st.Seq || b.Epoch != 0 || b.Rows != 3 {
			t.Fatalf("bundle stamp (%d, %d, rows %d), want (%d, 0, rows 3)", b.Epoch, b.Seq, b.Rows, st.Seq)
		}
		expectRelationMatchesModel(t, e, "f", mr)
	})
}

// TestSeqCountsTupleOps pins tuple-path counting: one op per row on
// multi-attribute relations, and the arity-1 flattening path counts
// once, not twice — in agreement with the reference model.
func TestSeqCountsTupleOps(t *testing.T) {
	t.Run("absorber", func(t *testing.T) {
		opts := seqOpts()
		opts.ChainWords = 64
		e, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		schema := Schema{Attrs: []string{"a", "b"}, EndA: []string{"a"}}
		r, err := e.DefineSchema("g", schema)
		if err != nil {
			t.Fatal(err)
		}
		m := newModel(t, opts)
		mr := modelDefine(t, m, "g", schema)
		for _, w := range []interface {
			InsertTuple(...uint64)
			InsertTupleBatch([][]uint64)
			DeleteTuple(...uint64) error
		}{r, mr} {
			w.InsertTuple(1, 10)
			w.InsertTupleBatch([][]uint64{{2, 20}, {3, 30}, {4, 40}})
			if err := w.DeleteTuple(2, 20); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := r.Cut().Seq, uint64(1+3+1); got != want {
			t.Fatalf("tuple Seq = %d, want %d", got, want)
		}
		expectRelationMatchesModel(t, e, "g", mr)

		one, err := e.Define("one")
		if err != nil {
			t.Fatal(err)
		}
		one.InsertTuple(7) // arity-1 delegates to Insert — one op
		one.InsertTupleBatch([][]uint64{{8}, {9}})
		if got, want := one.Cut().Seq, uint64(3); got != want {
			t.Fatalf("arity-1 tuple Seq = %d, want %d", got, want)
		}
	})
}

// TestStampLinearUnderMerge is the cache-correctness cornerstone: the
// bundle of a partitioned relation, merged coordinator-side, is
// byte-identical to the single-node bundle — stamp included, because
// Seq sums exactly like the counters.
func TestStampLinearUnderMerge(t *testing.T) {
	full, err := New(seqOpts())
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(seqOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(seqOpts())
	if err != nil {
		t.Fatal(err)
	}
	vs := fillRelationValues(300)
	fr, _ := full.Define("f")
	ar, _ := a.Define("f")
	br, _ := b.Define("f")
	fr.InsertBatch(vs)
	ar.InsertBatch(vs[:120])
	br.InsertBatch(vs[120:])
	if err := fr.Delete(vs[0]); err != nil {
		t.Fatal(err)
	}
	if err := ar.Delete(vs[0]); err != nil {
		t.Fatal(err)
	}

	fullBlob, err := full.ExportRelation("f")
	if err != nil {
		t.Fatal(err)
	}
	ab, err := a.ExportRelation("f")
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.ExportRelation("f")
	if err != nil {
		t.Fatal(err)
	}
	var da, db RelationBundle
	if err := da.UnmarshalBinary(ab); err != nil {
		t.Fatal(err)
	}
	if err := db.UnmarshalBinary(bb); err != nil {
		t.Fatal(err)
	}
	if err := da.Merge(&db); err != nil {
		t.Fatal(err)
	}
	if got, want := da.Seq, uint64(301); got != want {
		t.Fatalf("merged Seq = %d, want %d", got, want)
	}
	mergedBlob, err := da.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mergedBlob, fullBlob) {
		t.Fatal("merged partition bundle differs from the single-node bundle")
	}
}

func fillRelationValues(n int) []uint64 {
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = uint64(i*i + 7)
	}
	return vs
}

// TestStatSkipContract is the delta-aware refresh invariant: an equal
// stamp between two probes means the export bytes did not change, and
// any mutation in between changes the stamp.
func TestStatSkipContract(t *testing.T) {
	e, err := New(seqOpts())
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Define("f")
	if err != nil {
		t.Fatal(err)
	}
	r.InsertBatch([]uint64{1, 2, 3})
	st1, err := e.StatRelation("f")
	if err != nil {
		t.Fatal(err)
	}
	b1, err := e.ExportRelation("f")
	if err != nil {
		t.Fatal(err)
	}
	st2, err := e.StatRelation("f")
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Fatalf("stat moved with no ops: %+v vs %+v", st1, st2)
	}
	b2, err := e.ExportRelation("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("equal stamps but different export bytes")
	}
	r.Insert(9)
	st3, err := e.StatRelation("f")
	if err != nil {
		t.Fatal(err)
	}
	if st3.Seq == st2.Seq {
		t.Fatal("mutation did not move Seq")
	}
}

// TestStampSurvivesRecovery: Seq rides checkpoints and is re-derived
// from replayed log records, so a recovered engine reports exactly the
// pre-crash stamp — the property that lets a coordinator cache trust
// stamps across node restarts.
func TestStampSurvivesRecovery(t *testing.T) {
	t.Run("absorber", func(t *testing.T) {
		dir := t.TempDir()
		opts := seqOpts()
		opts.Dir = dir
		e, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Define("f")
		if err != nil {
			t.Fatal(err)
		}
		r.InsertBatch([]uint64{1, 2, 3, 4, 5})
		if _, err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		// Tail beyond the checkpoint: recovered Seq must be the checkpointed
		// count plus the replayed records.
		r.InsertBatch([]uint64{6, 7})
		if err := r.Delete(1); err != nil {
			t.Fatal(err)
		}
		preStat, err := e.StatRelation("f")
		if err != nil {
			t.Fatal(err)
		}
		preBlob, err := e.ExportRelation("f")
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}

		back, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer back.Close()
		st, err := back.StatRelation("f")
		if err != nil {
			t.Fatal(err)
		}
		if st.Seq != 8 || st.Seq != preStat.Seq {
			t.Fatalf("recovered Seq = %d, want 8 (pre-crash %d)", st.Seq, preStat.Seq)
		}
		if st.Rows != preStat.Rows {
			t.Fatalf("recovered Rows = %d, want %d", st.Rows, preStat.Rows)
		}
		// No rebase happened (the log tail reattaches), so the epoch — and
		// therefore the whole export — matches bit-exactly.
		postBlob, err := back.ExportRelation("f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(postBlob, preBlob) {
			t.Fatal("recovered export differs from the pre-crash export")
		}
	})
}

// TestImportCarriesStamp: import-then-export round-trips the stamp, and
// merging a bundle into an existing relation advances Seq by the
// bundle's op count — node-side merges and coordinator-side merges
// agree on the resulting version.
func TestImportCarriesStamp(t *testing.T) {
	src, err := New(seqOpts())
	if err != nil {
		t.Fatal(err)
	}
	r, _ := src.Define("f")
	r.InsertBatch([]uint64{1, 2, 3, 4})
	srcBlob, err := src.ExportRelation("f")
	if err != nil {
		t.Fatal(err)
	}

	dst, err := New(seqOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.ImportRelation("f", srcBlob); err != nil {
		t.Fatal(err)
	}
	st, err := dst.StatRelation("f")
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != 4 {
		t.Fatalf("imported Seq = %d, want 4", st.Seq)
	}
	out, err := dst.ExportRelation("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, srcBlob) {
		t.Fatal("import-then-export is not byte-identical")
	}
	if err := dst.MergeRelation("f", srcBlob); err != nil {
		t.Fatal(err)
	}
	st, err = dst.StatRelation("f")
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != 8 {
		t.Fatalf("post-merge Seq = %d, want 8", st.Seq)
	}
}

// TestBundleV3ZeroStampRejected: the canonical-encoding rule — a
// version-3 frame must carry a nonzero stamp, because zero-stamp
// bundles marshal in the old framing.
func TestBundleV3ZeroStampRejected(t *testing.T) {
	e, err := New(seqOpts())
	if err != nil {
		t.Fatal(err)
	}
	r, _ := e.Define("f")
	r.Insert(1)
	good, err := e.ExportRelation("f")
	if err != nil {
		t.Fatal(err)
	}
	var b RelationBundle
	if err := b.UnmarshalBinary(good); err != nil {
		t.Fatal(err)
	}
	sigBlob, err := b.Sig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	skBlob, err := b.Sketch.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Hand-build the version-3 payload with a zeroed stamp.
	bb := blob.NewBuilder(blob.MagicRelBundle, relBundleVersion, len(sigBlob)+64)
	bb.Bytes(sigBlob)
	bb.U32(1)
	bb.Bytes(skBlob)
	bb.I64(b.Rows)
	bb.U64(0) // epoch
	bb.U64(0) // seq
	bb.U32(0) // no chain
	var zeroed RelationBundle
	if err := zeroed.UnmarshalBinary(bb.Seal()); err == nil {
		t.Fatal("version-3 frame with a zero stamp decoded without error")
	}
}
