package engine

import (
	"bytes"
	"sync"
	"testing"

	"amstrack/internal/join"
	"amstrack/internal/xrand"
)

// tinyEng keeps the synopsis set minimal so exhaustive blob mutation
// stays fast.
func tinyEng(t *testing.T) *Engine {
	t.Helper()
	e, err := New(Options{SignatureWords: 4, Seed: 2, SketchS1: 4, SketchS2: 2, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEngineBlobTruncationNeverPanics truncates the checkpoint blob at
// every offset; every prefix must be rejected cleanly.
func TestEngineBlobTruncationNeverPanics(t *testing.T) {
	e := tinyEng(t)
	r1, _ := e.Define("aa")
	r2, _ := e.Define("bb")
	for i := 0; i < 50; i++ {
		r1.Insert(uint64(i % 5))
		r2.Insert(uint64(i % 3))
	}
	data, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		var back Engine
		if err := back.UnmarshalBinary(data[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(data))
		}
	}
	var back Engine
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatalf("full blob rejected: %v", err)
	}
	if got := back.Names(); len(got) != 2 || got[0] != "aa" || got[1] != "bb" {
		t.Fatalf("restored names = %v", got)
	}
}

// ingestAction is one step of a worker's randomized stream: a single
// insert, a single delete of a previously inserted value, or a batch
// insert/delete — the full Relation write surface.
type ingestAction struct {
	batch []uint64
	v     uint64
	del   bool
}

// buildActionStreams derives deterministic per-worker op streams where
// every delete targets a value the SAME worker inserted earlier, so the
// reference model, fed one worker after another, sees a valid op
// sequence; the engine may apply a delete before its insert, which
// linearity makes harmless.
func buildActionStreams(workers, steps int, seed uint64) [][]ingestAction {
	streams := make([][]ingestAction, workers)
	for w := range streams {
		r := xrand.New(seed + uint64(w)*977)
		var owned []uint64
		acts := make([]ingestAction, 0, steps)
		for i := 0; i < steps; i++ {
			switch p := r.Uint64n(10); {
			case p == 0 && len(owned) > 4:
				// Batch-delete a chunk of owned values.
				n := int(r.Uint64n(4)) + 1
				acts = append(acts, ingestAction{batch: owned[:n], del: true})
				owned = owned[n:]
			case p == 1:
				// Batch-insert fresh values.
				n := int(r.Uint64n(6)) + 2
				b := make([]uint64, n)
				for j := range b {
					b[j] = r.Uint64n(300)
				}
				owned = append(owned, b...)
				acts = append(acts, ingestAction{batch: b})
			case p <= 3 && len(owned) > 0:
				v := owned[len(owned)-1]
				owned = owned[:len(owned)-1]
				acts = append(acts, ingestAction{v: v, del: true})
			default:
				v := r.Uint64n(300)
				owned = append(owned, v)
				acts = append(acts, ingestAction{v: v})
			}
		}
		streams[w] = acts
	}
	return streams
}

// applyActions runs one worker's stream against a relation — the
// engine's from a worker goroutine, the reference model's sequentially.
func applyActions(w relWriter, acts []ingestAction) error {
	for _, a := range acts {
		var err error
		switch {
		case a.batch != nil && a.del:
			err = w.DeleteBatch(a.batch)
		case a.batch != nil:
			w.InsertBatch(a.batch)
		case a.del:
			err = w.Delete(a.v)
		default:
			w.Insert(a.v)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// TestConcurrentIngestMatchesReference is the engine's property test
// against the independent reference model: K goroutines hammer two
// relations with randomized insert/delete/batch streams, a third
// (skimmed) relation takes skewed insert-only streams, and after a drain
// every exported bundle must be byte-identical to the reference model
// fed the same streams one worker after another — signature, sketch,
// Rows, Seq — with the heavy-hitter table inside its space-saving
// bounds of the model's exact histogram. The engine's checkpoint image
// must decode to the same state, and its linear part must not depend on
// the staging size. Run under -race in CI, this is both the linearity proof and the
// data-race canary of the lock-free write path.
func TestConcurrentIngestMatchesReference(t *testing.T) {
	base := Options{SignatureWords: 128, Seed: 11, SketchS1: 64, SketchS2: 4, Shards: 4}
	const workers, steps = 8, 1500
	streams := buildActionStreams(workers, steps, 42)
	relNames := []string{"f", "g"}
	// Skewed insert-only streams for the skimmed relation: a few hot
	// values over a long tail, in single inserts and batches.
	skewed := make([][]ingestAction, 2)
	for w := range skewed {
		r := xrand.New(700 + uint64(w))
		for i := 0; i < steps; i++ {
			v := r.Uint64n(400)
			if r.Uint64n(2) == 0 {
				v = r.Uint64n(6)
			}
			if i%5 == 4 {
				skewed[w] = append(skewed[w], ingestAction{batch: []uint64{v, v + 1, v + 2}})
			} else {
				skewed[w] = append(skewed[w], ingestAction{v: v})
			}
		}
	}
	skim := Schema{SkimHitters: 8}

	m := newModel(t, base)
	for _, n := range relNames {
		modelDefine(t, m, n, Schema{})
	}
	modelDefine(t, m, "s", skim)
	for w := range streams {
		if err := applyActions(m.Relation(relNames[w%len(relNames)]), streams[w]); err != nil {
			t.Fatal(err)
		}
	}
	for w := range skewed {
		if err := applyActions(m.Relation("s"), skewed[w]); err != nil {
			t.Fatal(err)
		}
	}

	run := func(stageOps int) *Engine {
		t.Helper()
		opts := base
		opts.stageOps = stageOps
		e, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range relNames {
			if _, err := e.Define(n); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.DefineSchema("s", skim); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		ingest := func(name string, acts []ingestAction) {
			defer wg.Done()
			rel, err := e.Get(name)
			if err != nil {
				t.Error(err)
				return
			}
			if err := applyActions(rel, acts); err != nil {
				t.Error(err)
			}
		}
		for w := range streams {
			wg.Add(1)
			go ingest(relNames[w%len(relNames)], streams[w])
		}
		for w := range skewed {
			wg.Add(1)
			go ingest("s", skewed[w])
		}
		wg.Wait()
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		return e
	}

	// A tiny stageOps forces constant buffer flushes and partial drains;
	// the default exercises the steady-state path.
	var images [][]byte
	for _, stageOps := range []int{5, 0} {
		e := run(stageOps)
		expectEngineMatchesModel(t, e, m)
		img, err := e.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back Engine
		if err := back.UnmarshalBinary(img); err != nil {
			t.Fatal(err)
		}
		expectEngineMatchesModel(t, &back, m)
		// The heavy-hitter table follows the apply order, which staging
		// changes; compare the images of the linear relations only.
		if err := e.Drop("s"); err != nil {
			t.Fatal(err)
		}
		if img, err = e.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
		images = append(images, img)
	}
	if !bytes.Equal(images[0], images[1]) {
		t.Fatalf("serialized engines differ between staging sizes (%d vs %d bytes)", len(images[0]), len(images[1]))
	}
}

// tupleAction is one step of a worker's randomized stream on a chain
// schema: a single tuple insert/delete or a tuple batch, rows of the
// owning relation's arity.
type tupleAction struct {
	rows [][]uint64
	row  []uint64
	del  bool
}

// buildTupleStreams derives deterministic per-worker tuple op streams for
// a relation of the given arity; every delete targets a tuple the SAME
// worker inserted earlier.
func buildTupleStreams(workers, steps, arity int, seed uint64) [][]tupleAction {
	streams := make([][]tupleAction, workers)
	for w := range streams {
		r := xrand.New(seed + uint64(w)*1117)
		var owned [][]uint64
		row := func() []uint64 {
			t := make([]uint64, arity)
			for i := range t {
				t[i] = r.Uint64n(200)
			}
			return t
		}
		acts := make([]tupleAction, 0, steps)
		for i := 0; i < steps; i++ {
			switch p := r.Uint64n(10); {
			case p == 0 && len(owned) > 4:
				n := int(r.Uint64n(4)) + 1
				acts = append(acts, tupleAction{rows: owned[:n], del: true})
				owned = owned[n:]
			case p == 1:
				n := int(r.Uint64n(6)) + 2
				b := make([][]uint64, n)
				for j := range b {
					b[j] = row()
				}
				owned = append(owned, b...)
				acts = append(acts, tupleAction{rows: b})
			case p <= 3 && len(owned) > 0:
				tpl := owned[len(owned)-1]
				owned = owned[:len(owned)-1]
				acts = append(acts, tupleAction{row: tpl, del: true})
			default:
				tpl := row()
				owned = append(owned, tpl)
				acts = append(acts, tupleAction{row: tpl})
			}
		}
		streams[w] = acts
	}
	return streams
}

// tupleWriter is the tuple write surface engine relations and model
// relations share.
type tupleWriter interface {
	InsertTuple(vals ...uint64)
	DeleteTuple(vals ...uint64) error
	InsertTupleBatch(rows [][]uint64)
	DeleteTupleBatch(rows [][]uint64) error
}

// applyTupleActions runs one worker's tuple stream against a relation.
func applyTupleActions(w tupleWriter, acts []tupleAction) error {
	for _, a := range acts {
		var err error
		switch {
		case a.rows != nil && a.del:
			err = w.DeleteTupleBatch(a.rows)
		case a.rows != nil:
			w.InsertTupleBatch(a.rows)
		case a.del:
			err = w.DeleteTuple(a.row...)
		default:
			w.InsertTuple(a.row...)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// TestConcurrentChainIngestMatchesReference is the reference-model
// property test for the multi-attribute path: 8 goroutines hammer a
// 3-relation chain schema — F(a) with an A-side end signature, G(a,b)
// with a middle signature plus both end declarations, H(b) with a B-side
// end — with randomized tuple insert/delete streams; after a drain every
// bundle (chain sections included) must be byte-identical to the
// reference model fed the same streams sequentially, and the chain
// estimate must be the model's.
func TestConcurrentChainIngestMatchesReference(t *testing.T) {
	base := Options{SignatureWords: 64, Seed: 23, ChainWords: 128, SketchS1: 32, SketchS2: 2, Shards: 4}
	schemas := map[string]Schema{
		"f": {Attrs: []string{"a"}, EndA: []string{"a"}},
		"g": {Attrs: []string{"a", "b"}, EndA: []string{"a"}, EndB: []string{"b"},
			Middle: [][2]string{{"a", "b"}}},
		"h": {Attrs: []string{"b"}, EndB: []string{"b"}},
	}
	arity := map[string]int{"f": 1, "g": 2, "h": 1}
	names := []string{"f", "g", "h"}
	const workers, steps = 8, 900
	streams := make(map[string][][]tupleAction)
	for _, n := range names {
		streams[n] = buildTupleStreams(workers, steps, arity[n], 91+uint64(len(n)))
	}

	m := newModel(t, base)
	for _, n := range names {
		modelDefine(t, m, n, schemas[n])
	}
	for w := 0; w < workers; w++ {
		name := names[w%len(names)]
		if err := applyTupleActions(m.Relation(name), streams[name][w]); err != nil {
			t.Fatal(err)
		}
	}
	mf, mg, mh := m.Relation("f"), m.Relation("g"), m.Relation("h")
	wantChain, err := join.EstimateChainJoin(mf.Ends()[0], mg.Mids()[0], mh.Ends()[0])
	if err != nil {
		t.Fatal(err)
	}

	run := func(stageOps int) *Engine {
		t.Helper()
		opts := base
		opts.stageOps = stageOps
		e, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			if _, err := e.DefineSchema(n, schemas[n]); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				name := names[w%len(names)]
				rel, err := e.Get(name)
				if err != nil {
					t.Error(err)
					return
				}
				if err := applyTupleActions(rel, streams[name][w]); err != nil {
					t.Error(err)
				}
			}(w)
		}
		wg.Wait()
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		return e
	}

	var images [][]byte
	for _, stageOps := range []int{5, 0} {
		e := run(stageOps)
		expectEngineMatchesModel(t, e, m)
		ce, err := e.EstimateChainJoin("f", "a", "g", "b", "h")
		if err != nil {
			t.Fatal(err)
		}
		if ce.Estimate != wantChain || ce.SJF != mf.Ends()[0].SelfJoinEstimate() ||
			ce.SJG != mg.Mids()[0].SelfJoinEstimate() || ce.SJH != mh.Ends()[0].SelfJoinEstimate() {
			t.Fatalf("stageOps=%d: chain estimate %+v, model estimate %v", stageOps, ce, wantChain)
		}
		img, err := e.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back Engine
		if err := back.UnmarshalBinary(img); err != nil {
			t.Fatal(err)
		}
		expectEngineMatchesModel(t, &back, m)
		images = append(images, img)
	}
	if !bytes.Equal(images[0], images[1]) {
		t.Fatal("serialized chain engines differ between staging sizes")
	}
}

// TestEngineBlobBitFlipsDetected flips each byte once; the CRC must catch
// every mutation.
func TestEngineBlobBitFlipsDetected(t *testing.T) {
	e := tinyEng(t)
	r, _ := e.Define("x")
	r.Insert(1)
	data, _ := e.MarshalBinary()
	for i := 0; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x80
		var back Engine
		if err := back.UnmarshalBinary(mut); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
	}
}
