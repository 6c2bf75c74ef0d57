package engine

import (
	"bytes"
	"errors"
	"testing"

	"amstrack/internal/exact"
	"amstrack/internal/xrand"
)

// chainOpts is the shared shape for chain tests.
func chainOpts() Options {
	return Options{SignatureWords: 64, Seed: 5, ChainWords: 512, SketchS1: 32, SketchS2: 2, Shards: 2}
}

// chainSchemas returns the canonical three-relation chain declaration:
// F(a) ⋈a G(a,b) ⋈b H(b).
func chainSchemas() (f, g, h Schema) {
	f = Schema{Attrs: []string{"a"}, EndA: []string{"a"}}
	g = Schema{Attrs: []string{"a", "b"}, Middle: [][2]string{{"a", "b"}}}
	h = Schema{Attrs: []string{"b"}, EndB: []string{"b"}}
	return
}

// defineChain builds the three relations on an engine.
func defineChain(t *testing.T, e *Engine) (rf, rg, rh *Relation) {
	t.Helper()
	sf, sg, sh := chainSchemas()
	var err error
	if rf, err = e.DefineSchema("f", sf); err != nil {
		t.Fatal(err)
	}
	if rg, err = e.DefineSchema("g", sg); err != nil {
		t.Fatal(err)
	}
	if rh, err = e.DefineSchema("h", sh); err != nil {
		t.Fatal(err)
	}
	return
}

// chainData draws a deterministic three-relation workload with a delete
// wave, returning the streams and the exact chain join size after it.
func chainData(n int, seed uint64) (fvals []uint64, grows [][]uint64, hvals []uint64, del int, truth float64) {
	r := xrand.New(seed)
	const domain = 40
	for i := 0; i < n; i++ {
		fvals = append(fvals, r.Uint64n(domain))
		grows = append(grows, []uint64{r.Uint64n(domain), r.Uint64n(domain)})
		hvals = append(hvals, r.Uint64n(domain))
	}
	del = n / 8
	fh, hh := exact.NewHistogram(), exact.NewHistogram()
	gh := exact.NewPairHistogram()
	for i := 0; i < n; i++ {
		fh.Insert(fvals[i])
		gh.Insert(grows[i][0], grows[i][1])
		hh.Insert(hvals[i])
	}
	for i := 0; i < del; i++ {
		_ = fh.Delete(fvals[i])
		_ = gh.Delete(grows[i][0], grows[i][1])
		_ = hh.Delete(hvals[i])
	}
	return fvals, grows, hvals, del, float64(gh.ChainJoin(fh, hh))
}

// ingestChain loads the workload (inserts then the delete wave).
func ingestChain(t *testing.T, rf, rg, rh *Relation, fvals []uint64, grows [][]uint64, hvals []uint64, del int) {
	t.Helper()
	rf.InsertBatch(fvals)
	rg.InsertTupleBatch(grows)
	rh.InsertBatch(hvals)
	if err := rf.DeleteBatch(fvals[:del]); err != nil {
		t.Fatal(err)
	}
	if err := rg.DeleteTupleBatch(grows[:del]); err != nil {
		t.Fatal(err)
	}
	if err := rh.DeleteBatch(hvals[:del]); err != nil {
		t.Fatal(err)
	}
}

// TestEstimateChainJoinAccuracy: the engine-level chain estimate lands
// within the variance envelope of the exact answer, and the bounds are
// internally consistent.
func TestEstimateChainJoinAccuracy(t *testing.T) {
	e, err := New(chainOpts())
	if err != nil {
		t.Fatal(err)
	}
	rf, rg, rh := defineChain(t, e)
	fvals, grows, hvals, del, truth := chainData(6000, 77)
	ingestChain(t, rf, rg, rh, fvals, grows, hvals, del)

	ce, err := e.EstimateChainJoin("f", "a", "g", "b", "h")
	if err != nil {
		t.Fatal(err)
	}
	if truth <= 0 {
		t.Fatalf("degenerate workload: truth = %v", truth)
	}
	if diff := ce.Estimate - truth; diff > 3*ce.Sigma || diff < -3*ce.Sigma {
		t.Fatalf("estimate %v vs truth %v beyond 3σ = %v", ce.Estimate, truth, 3*ce.Sigma)
	}
	if ce.Upper < truth*0.9 {
		t.Fatalf("Cauchy–Schwarz bound %v below truth %v", ce.Upper, truth)
	}
	if ce.K != 512 {
		t.Fatalf("K = %d, want 512", ce.K)
	}
	if ce.SJF <= 0 || ce.SJG <= 0 || ce.SJH <= 0 {
		t.Fatalf("self-join estimates not positive: %+v", ce)
	}
}

// TestChainErrorTaxonomy: unknown relations and undeclared attributes
// report the sentinel errors the serving layer maps onto statuses.
func TestChainErrorTaxonomy(t *testing.T) {
	e, err := New(chainOpts())
	if err != nil {
		t.Fatal(err)
	}
	defineChain(t, e)
	if _, err := e.EstimateChainJoin("ghost", "a", "g", "b", "h"); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("unknown relation: %v", err)
	}
	if _, err := e.EstimateChainJoin("f", "zz", "g", "b", "h"); !errors.Is(err, ErrAttrNotTracked) {
		t.Fatalf("undeclared end attr: %v", err)
	}
	if _, err := e.EstimateChainJoin("f", "a", "g", "zz", "h"); !errors.Is(err, ErrAttrNotTracked) {
		t.Fatalf("undeclared middle pair: %v", err)
	}
	// h declares side B only; asking for it as the LEFT end must fail.
	if _, err := e.EstimateChainJoin("h", "b", "g", "b", "h"); !errors.Is(err, ErrAttrNotTracked) {
		t.Fatalf("wrong side: %v", err)
	}
}

// TestSchemaValidation pins the declaration errors.
func TestSchemaValidation(t *testing.T) {
	e, err := New(chainOpts())
	if err != nil {
		t.Fatal(err)
	}
	bad := []Schema{
		{Attrs: []string{"a", "a"}},                                              // duplicate attr
		{Attrs: []string{""}},                                                    // empty name
		{EndA: []string{"a"}},                                                    // chain decl without attrs
		{Attrs: []string{"a"}, EndA: []string{"zz"}},                             // unknown end attr
		{Attrs: []string{"a"}, EndA: []string{"a", "a"}},                         // duplicate end decl
		{Attrs: []string{"a", "b"}, Middle: [][2]string{{"a", "zz"}}},            // unknown middle attr
		{Attrs: []string{"a", "b"}, Middle: [][2]string{{"a", "b"}, {"a", "b"}}}, // dup pair
		{Attrs: make([]string, maxArity+1)},                                      // too wide
	}
	for i, s := range bad {
		if _, err := e.DefineSchema("r", s); err == nil {
			t.Fatalf("bad schema %d accepted", i)
		}
	}
	// A middle pair on one attribute (self-pair) is legal.
	if _, err := e.DefineSchema("selfpair", Schema{Attrs: []string{"a"}, Middle: [][2]string{{"a", "a"}}}); err != nil {
		t.Fatalf("self-pair middle rejected: %v", err)
	}
}

// TestArityContracts: single-value ops on a multi-attribute relation,
// and wrong-width tuples, panic loudly (the serving layers 400 first).
func TestArityContracts(t *testing.T) {
	e, err := New(chainOpts())
	if err != nil {
		t.Fatal(err)
	}
	_, rg, _ := defineChain(t, e)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Insert on arity-2", func() { rg.Insert(1) })
	mustPanic("InsertBatch on arity-2", func() { rg.InsertBatch([]uint64{1}) })
	mustPanic("narrow tuple", func() { rg.InsertTuple(1) })
	mustPanic("wide tuple", func() { rg.InsertTuple(1, 2, 3) })
}

// TestChainCheckpointRecovery: a durable engine with chain relations
// checkpoints, ingests more (oplog tuple records), crashes, and recovers
// to bit-identical chain estimates and exports.
func TestChainCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := chainOpts()
	opts.Dir = dir
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	rf, rg, rh := defineChain(t, e)
	fvals, grows, hvals, del, _ := chainData(3000, 9)
	// First half before the checkpoint, second half (and the deletes)
	// after — recovery must replay tuple records on top of the blob.
	half := len(fvals) / 2
	rf.InsertBatch(fvals[:half])
	rg.InsertTupleBatch(grows[:half])
	rh.InsertBatch(hvals[:half])
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rf.InsertBatch(fvals[half:])
	rg.InsertTupleBatch(grows[half:])
	rh.InsertBatch(hvals[half:])
	if err := rf.DeleteBatch(fvals[:del]); err != nil {
		t.Fatal(err)
	}
	if err := rg.DeleteTupleBatch(grows[:del]); err != nil {
		t.Fatal(err)
	}
	if err := rh.DeleteBatch(hvals[:del]); err != nil {
		t.Fatal(err)
	}
	want, err := e.EstimateChainJoin("f", "a", "g", "b", "h")
	if err != nil {
		t.Fatal(err)
	}
	wantG, err := e.ExportRelation("g")
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
	got, err := back.EstimateChainJoin("f", "a", "g", "b", "h")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("recovered chain estimate %+v != %+v", got, want)
	}
	gotG, err := back.ExportRelation("g")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotG, wantG) {
		t.Fatal("recovered middle bundle differs")
	}
	rg2, err := back.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if rg2.Arity() != 2 {
		t.Fatalf("recovered arity = %d", rg2.Arity())
	}
}

// TestChainBundleExchange: export → import on a same-shape engine keeps
// chain estimates bit-identical; merge doubles the counters; mismatched
// seed and schema report ErrIncompatible.
func TestChainBundleExchange(t *testing.T) {
	a, err := New(chainOpts())
	if err != nil {
		t.Fatal(err)
	}
	rf, rg, rh := defineChain(t, a)
	fvals, grows, hvals, del, _ := chainData(2000, 31)
	ingestChain(t, rf, rg, rh, fvals, grows, hvals, del)

	b, err := New(chainOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"f", "g", "h"} {
		blob, err := a.ExportRelation(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.ImportRelation(name, blob); err != nil {
			t.Fatal(err)
		}
	}
	want, err := a.EstimateChainJoin("f", "a", "g", "b", "h")
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.EstimateChainJoin("f", "a", "g", "b", "h")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("imported chain estimate %+v != %+v", got, want)
	}
	// Re-exports must be byte-identical (canonical encoding).
	for _, name := range []string{"f", "g", "h"} {
		ea, _ := a.ExportRelation(name)
		eb, _ := b.ExportRelation(name)
		if !bytes.Equal(ea, eb) {
			t.Fatalf("%s: re-export differs", name)
		}
	}

	// Merging g into itself doubles the middle counters (estimate scales
	// by 2 for the middle leg).
	gBlob, _ := a.ExportRelation("g")
	if err := b.MergeRelation("g", gBlob); err != nil {
		t.Fatal(err)
	}
	doubled, err := b.EstimateChainJoin("f", "a", "g", "b", "h")
	if err != nil {
		t.Fatal(err)
	}
	if diff := doubled.Estimate - 2*want.Estimate; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("merged-middle estimate %v, want %v", doubled.Estimate, 2*want.Estimate)
	}

	// A seed-mismatched engine's bundle must be rejected as incompatible.
	foreignOpts := chainOpts()
	foreignOpts.Seed = 6
	foreign, err := New(foreignOpts)
	if err != nil {
		t.Fatal(err)
	}
	_, fg, _ := defineChain(t, foreign)
	fg.InsertTuple(1, 2)
	foreignBlob, err := foreign.ExportRelation("g")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.MergeRelation("g", foreignBlob); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("foreign-seed merge: %v", err)
	}

	// A schema-mismatched bundle (chainless) into a chain relation: 409.
	plain, err := New(chainOpts())
	if err != nil {
		t.Fatal(err)
	}
	pr, err := plain.Define("g")
	if err != nil {
		t.Fatal(err)
	}
	pr.Insert(1)
	plainBlob, err := plain.ExportRelation("g")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.MergeRelation("g", plainBlob); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("schema-mismatched merge: %v", err)
	}
}
