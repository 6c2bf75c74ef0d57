package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"amstrack/internal/exact"
	"amstrack/internal/xrand"
)

// skimTestHitters is sized so the relation-level table (perShard ×
// Shards = 8 × 2 = 16 with durOpts' two shards) sits just below the
// churn domain: evictions and re-admissions happen constantly.
const skimTestHitters = 16

// skimChurn is a single-writer op stream engineered to hammer the table
// boundary: the domain is 1.5× the table capacity so untracked values
// keep evicting the minimum entry, a skewed second draw keeps a few
// genuine hitters on top, and a rolling delete wave drives tracked
// counts back down through zero (exercising the tracked-hits-zero
// removal path). live tracks the true multiset so deletes never go
// negative.
func skimChurn(t *testing.T, r relWriter, seed uint64, n int, live map[uint64]int64) {
	t.Helper()
	rng := xrand.New(seed)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.3 {
			// Delete pass: pick the smallest live value (deterministic)
			// every few ops so boundary entries get dragged back down.
			var victim uint64
			found := false
			for v, c := range live {
				if c > 0 && (!found || v < victim) {
					victim, found = v, true
				}
			}
			if found {
				if err := r.Delete(victim); err != nil {
					t.Fatal(err)
				}
				live[victim]--
				continue
			}
		}
		v := rng.Uint64n(24)
		if rng.Float64() < 0.4 {
			v = rng.Uint64n(5) // skew: a few genuine hitters
		}
		r.Insert(v)
		live[v]++
	}
}

// TestSkimKillRecoverBitIdentical is the torture half of the skim
// acceptance: churn the table boundary, checkpoint mid-stream, churn
// more, kill, recover from checkpoint + oplog replay — the recovered
// heavy-hitter table must be BIT-identical (marshaled bytes) to the
// table the uninterrupted run held before the kill, the skimmed
// self-join estimate must match exactly, and the linear synopses must
// match the reference model byte for byte.
func TestSkimKillRecoverBitIdentical(t *testing.T) {
	t.Run("absorber", func(t *testing.T) {
		dir := t.TempDir()
		e, err := Open(durOpts(dir))
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.DefineSchema("s", Schema{SkimHitters: skimTestHitters})
		if err != nil {
			t.Fatal(err)
		}
		m := newModel(t, durOpts(""))
		mr := modelDefine(t, m, "s", Schema{})
		live, mlive := map[uint64]int64{}, map[uint64]int64{}
		skimChurn(t, r, 21, 2500, live)
		skimChurn(t, mr, 21, 2500, mlive)
		if _, err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		skimChurn(t, r, 22, 2500, live)
		skimChurn(t, mr, 22, 2500, mlive)
		want, err := r.Cut().HH.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		we, wn := r.SelfJoinEstimateDetail()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}

		back, err := Open(durOpts(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer back.Close()
		rb, err := back.Get("s")
		if err != nil {
			t.Fatal(err)
		}
		got, err := rb.Cut().HH.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("recovered heavy-hitter table differs from uninterrupted run: %d vs %d bytes", len(got), len(want))
		}
		ge, gn := rb.SelfJoinEstimateDetail()
		if gn != "skimmed" || wn != "skimmed" {
			t.Fatalf("estimator = %q / %q, want skimmed", gn, wn)
		}
		if ge != we {
			t.Fatalf("skimmed self-join estimate: recovered %v != uninterrupted %v", ge, we)
		}
		expectEngineMatchesModel(t, back, m)
	})
}

// TestSkimMergePartitionProperty is the merge-exactness acceptance: a
// skewed stream with deletions partitioned across 2–5 engines, bundles
// exported and merged, must (a) reproduce the single-node signature and
// sketch BIT-exactly — those halves are linear, skimming must not
// perturb them — and (b) produce a skimmed self-join estimate that
// agrees with single-node ingest within tolerance, the HH merge being
// deliberately lossy. The single-node bundle itself must match the
// reference model byte for byte.
func TestSkimMergePartitionProperty(t *testing.T) {
	// One skewed op stream with a delete wave, built once.
	rng := xrand.New(77)
	zipf := xrand.NewZipf(rng, 1.4, 4000)
	type op struct {
		v   uint64
		del bool
	}
	ops := make([]op, 0, 22000)
	hist := exact.NewHistogram()
	liveOrder := make([]uint64, 0, 20000) // insertion order, for the delete wave
	for i := 0; i < 20000; i++ {
		v := uint64(zipf.Next())
		ops = append(ops, op{v: v})
		hist.Insert(v)
		liveOrder = append(liveOrder, v)
	}
	for _, v := range liveOrder[:2000] { // delete the leading tenth
		ops = append(ops, op{v: v, del: true})
		hist.Delete(v)
	}
	trueSJ := float64(hist.SelfJoin())

	t.Run("absorber", func(t *testing.T) {
		single, err := New(durOpts(""))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := single.DefineSchema("s", Schema{SkimHitters: skimTestHitters}); err != nil {
			t.Fatal(err)
		}
		sr, _ := single.Get("s")
		m := newModel(t, durOpts(""))
		mr := modelDefine(t, m, "s", Schema{})
		for _, o := range ops {
			for _, w := range []relWriter{sr, mr} {
				if o.del {
					if err := w.Delete(o.v); err != nil {
						t.Fatal(err)
					}
				} else {
					w.Insert(o.v)
				}
			}
		}
		expectRelationMatchesModel(t, single, "s", mr)
		singleBlob, err := single.ExportRelation("s")
		if err != nil {
			t.Fatal(err)
		}
		var want RelationBundle
		if err := want.UnmarshalBinary(singleBlob); err != nil {
			t.Fatal(err)
		}
		wantSJ := want.SelfJoinEstimate()

		for parts := 2; parts <= 5; parts++ {
			t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
				bundles := make([]*RelationBundle, parts)
				for p := 0; p < parts; p++ {
					pe, err := New(durOpts(""))
					if err != nil {
						t.Fatal(err)
					}
					if _, err := pe.DefineSchema("s", Schema{SkimHitters: skimTestHitters}); err != nil {
						t.Fatal(err)
					}
					pr, _ := pe.Get("s")
					// Value-hash partitioning: each partition owns a
					// disjoint slice of the domain, the realistic
					// sharded-ingest layout.
					for _, o := range ops {
						if int(xrand.Mix64(o.v)%uint64(parts)) != p {
							continue
						}
						if o.del {
							if err := pr.Delete(o.v); err != nil {
								t.Fatal(err)
							}
						} else {
							pr.Insert(o.v)
						}
					}
					blob, err := pe.ExportRelation("s")
					if err != nil {
						t.Fatal(err)
					}
					var b RelationBundle
					if err := b.UnmarshalBinary(blob); err != nil {
						t.Fatal(err)
					}
					bundles[p] = &b
				}
				merged := bundles[0]
				for _, b := range bundles[1:] {
					if err := merged.Merge(b); err != nil {
						t.Fatal(err)
					}
				}

				// Linear halves: bit-exact against single-node.
				gotSig, _ := merged.Sig.MarshalBinary()
				wantSig, _ := want.Sig.MarshalBinary()
				if !bytes.Equal(gotSig, wantSig) {
					t.Fatal("merged signature is not bit-identical to single-node ingest")
				}
				gotSk, _ := merged.Sketch.MarshalBinary()
				wantSk, _ := want.Sketch.MarshalBinary()
				if !bytes.Equal(gotSk, wantSk) {
					t.Fatal("merged sketch is not bit-identical to single-node ingest")
				}

				// Lossy half: the merged skimmed estimate agrees with
				// single-node within tolerance (scaled by the true SJ,
				// so the bound is meaningful even if both drift).
				if merged.HH == nil || merged.SkimHitters != skimTestHitters {
					t.Fatalf("merged bundle lost its skim section: HH=%v SkimHitters=%d", merged.HH != nil, merged.SkimHitters)
				}
				gotSJ := merged.SelfJoinEstimate()
				if d := math.Abs(gotSJ-wantSJ) / trueSJ; d > 0.15 {
					t.Fatalf("merged skimmed estimate %v vs single-node %v: drift %.3f of true SJ %v", gotSJ, wantSJ, d, trueSJ)
				}
			})
		}
	})
}

// TestSkimEstimatorDispatch checks which estimator answers where: a
// skimming relation reports "skimmed", a plain one "sketch", a NoSketch
// one "signature"; joins answer "skimmed" only when BOTH sides skim.
func TestSkimEstimatorDispatch(t *testing.T) {
	e, err := New(durOpts(""))
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.DefineSchema("a", Schema{SkimHitters: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.DefineSchema("b", Schema{SkimHitters: 8})
	if err != nil {
		t.Fatal(err)
	}
	c, err := e.Define("c")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		v := uint64(i % 13)
		a.Insert(v)
		b.Insert(v)
		c.Insert(v)
	}
	if _, name := a.SelfJoinEstimateDetail(); name != "skimmed" {
		t.Fatalf("skimming relation answered %q", name)
	}
	if _, name := c.SelfJoinEstimateDetail(); name != "sketch" {
		t.Fatalf("plain relation answered %q", name)
	}
	je, err := e.EstimateJoin("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if je.Estimator != "skimmed" {
		t.Fatalf("both-skim join answered %q", je.Estimator)
	}
	je, err = e.EstimateJoin("a", "c")
	if err != nil {
		t.Fatal(err)
	}
	if je.Estimator != "sketch" {
		t.Fatalf("mixed join answered %q, want sketch (skimming needs both tables)", je.Estimator)
	}

	ns, err := New(Options{SignatureWords: 64, Seed: 5, NoSketch: true})
	if err != nil {
		t.Fatal(err)
	}
	nr, err := ns.DefineSchema("n", Schema{SkimHitters: 8})
	if err != nil {
		t.Fatal(err)
	}
	nr.Insert(1)
	if _, name := nr.SelfJoinEstimateDetail(); name != "signature" {
		t.Fatalf("NoSketch skimming relation answered %q, want signature", name)
	}
}

// TestSkimBundleRoundTripAndCompat checks the exchange-path contract:
// a skimmed bundle imports as a skimmed relation and re-exports
// byte-identically, and skim-presence / budget mismatches are rejected
// as ErrIncompatible rather than silently dropping the table.
func TestSkimBundleRoundTripAndCompat(t *testing.T) {
	opts := durOpts("")
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.DefineSchema("s", Schema{SkimHitters: skimTestHitters}); err != nil {
		t.Fatal(err)
	}
	live := map[uint64]int64{}
	sr, _ := e.Get("s")
	skimChurn(t, sr, 5, 800, live)
	blob, err := e.ExportRelation("s")
	if err != nil {
		t.Fatal(err)
	}

	// Import into a fresh engine, re-export: byte-identical framing.
	imp, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := imp.ImportRelation("s", blob); err != nil {
		t.Fatal(err)
	}
	again, err := imp.ExportRelation("s")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatalf("import/re-export is not byte-identical: %d vs %d bytes", len(again), len(blob))
	}
	ir, _ := imp.Get("s")
	if _, name := ir.SelfJoinEstimateDetail(); name != "skimmed" {
		t.Fatalf("imported relation answered %q, want skimmed", name)
	}

	// Skimmed bundle into an unskimmed relation: incompatible.
	plain, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Define("s"); err != nil {
		t.Fatal(err)
	}
	if err := plain.MergeRelation("s", blob); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("skimmed bundle into unskimmed relation: err = %v, want ErrIncompatible", err)
	}

	// Unskimmed bundle into a skimmed relation: incompatible too.
	plainBlob, err := plain.ExportRelation("s")
	if err != nil {
		t.Fatal(err)
	}
	if err := imp.MergeRelation("s", plainBlob); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("unskimmed bundle into skimmed relation: err = %v, want ErrIncompatible", err)
	}

	// Budget mismatch: same skim framing, different SkimHitters.
	other, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.DefineSchema("s", Schema{SkimHitters: skimTestHitters / 2}); err != nil {
		t.Fatal(err)
	}
	otherBlob, err := other.ExportRelation("s")
	if err != nil {
		t.Fatal(err)
	}
	if err := imp.MergeRelation("s", otherBlob); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("skim-budget mismatch: err = %v, want ErrIncompatible", err)
	}
}

// TestSkimShardCountRules pins where a skimmed relation's shard count
// matters. A checkpoint reopens at any Shards: its relation-level table
// re-splits onto the new shards (capacity 6 → 8 for SkimHitters 6 at 2
// → 4 shards) and every linear part comes back unchanged. A shipped
// bundle does not: engines that exchange skimmed bundles agree on
// SkimHitters and Shards (DESIGN.md §13), so a table of another capacity
// is ErrIncompatible.
func TestSkimShardCountRules(t *testing.T) {
	at := func(dir string, shards int) Options {
		o := durOpts(dir)
		o.Shards = shards
		return o
	}
	t.Run("checkpoint reopens at another shard count", func(t *testing.T) {
		dir := t.TempDir()
		e, err := Open(at(dir, 2))
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.DefineSchema("s", Schema{SkimHitters: 6})
		if err != nil {
			t.Fatal(err)
		}
		live := map[uint64]int64{}
		skimChurn(t, r, 41, 1500, live)
		if _, err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		skimChurn(t, r, 42, 500, live) // a log tail, replayed at 4 shards
		want := r.Cut()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		var exports [2][]byte
		for i := range exports {
			back, err := Open(at(dir, 4))
			if err != nil {
				t.Fatal(err)
			}
			rb, err := back.Get("s")
			if err != nil {
				t.Fatal(err)
			}
			got := rb.Cut()
			if got.HH.Capacity() != 8 {
				t.Fatalf("reopened table capacity %d, want 8", got.HH.Capacity())
			}
			if got.Rows != want.Rows || got.Seq != want.Seq {
				t.Fatalf("reopened Rows %d Seq %d, want %d and %d", got.Rows, got.Seq, want.Rows, want.Seq)
			}
			if !bytes.Equal(marshalOf(t, got.Sig), marshalOf(t, want.Sig)) {
				t.Fatal("reopened signature differs from the pre-close cut")
			}
			if !bytes.Equal(marshalOf(t, got.Sketch), marshalOf(t, want.Sketch)) {
				t.Fatal("reopened sketch differs from the pre-close cut")
			}
			exports[i] = marshalOf(t, got)
			if err := back.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(exports[0], exports[1]) {
			t.Fatal("two reopens at 4 shards export different bundles")
		}
	})
	t.Run("shipped bundle needs the local capacity", func(t *testing.T) {
		src, err := New(at("", 2))
		if err != nil {
			t.Fatal(err)
		}
		sr, err := src.DefineSchema("s", Schema{SkimHitters: 6})
		if err != nil {
			t.Fatal(err)
		}
		skimChurn(t, sr, 43, 800, map[uint64]int64{})
		data, err := src.ExportRelation("s")
		if err != nil {
			t.Fatal(err)
		}
		dst, err := New(at("", 4))
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.ImportRelation("s", data); !errors.Is(err, ErrIncompatible) {
			t.Fatalf("import of a 2-shard skimmed bundle at 4 shards: err = %v, want ErrIncompatible", err)
		}
		if _, err := dst.DefineSchema("s", Schema{SkimHitters: 6}); err != nil {
			t.Fatal(err)
		}
		if err := dst.MergeRelation("s", data); !errors.Is(err, ErrIncompatible) {
			t.Fatalf("merge of a 2-shard skimmed bundle at 4 shards: err = %v, want ErrIncompatible", err)
		}
	})
}
