package engine

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"amstrack/internal/blob"
	"amstrack/internal/exact"
	"amstrack/internal/hash"
	"amstrack/internal/join"
	"amstrack/internal/xrand"
)

// newEng builds an in-memory engine with a moderate synopsis set (ported
// from the old catalog tests, which this package absorbed).
func newEng(t *testing.T) *Engine {
	t.Helper()
	e, err := New(Options{SignatureWords: 256, Seed: 7, SketchS1: 512, SketchS2: 6, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestOptionsValidate(t *testing.T) {
	if _, err := New(Options{SignatureWords: 0}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := New(Options{SignatureWords: 256, SignatureRows: 3}); err == nil {
		t.Fatal("rows not dividing k accepted")
	}
	if _, err := New(Options{SignatureWords: 256, Shards: -1}); err == nil {
		t.Fatal("negative shards accepted")
	}
	const rows = hash.MaxTab4Rows + 1
	if _, err := New(Options{SignatureWords: 16 * rows, SignatureRows: rows}); err == nil {
		t.Fatalf("SignatureRows=%d accepted", rows)
	}
	if _, err := New(Options{SignatureWords: 256, SketchS2: rows}); err == nil {
		t.Fatalf("SketchS2=%d accepted", rows)
	}
	// Defaults: 256 words → 8 rows of 32 buckets, 4 shards, sketch on.
	e, err := New(Options{SignatureWords: 256})
	if err != nil {
		t.Fatal(err)
	}
	o := e.Options()
	if o.SignatureRows != 8 || o.Shards != 4 || o.SketchS1 != 1024 || o.SketchS2 != 8 {
		t.Fatalf("normalized options = %+v", o)
	}
	// Small k keeps one row rather than starving the buckets.
	e, _ = New(Options{SignatureWords: 8})
	if e.Options().SignatureRows != 1 {
		t.Fatalf("k=8 rows = %d, want 1", e.Options().SignatureRows)
	}
}

func TestDefineGetDrop(t *testing.T) {
	e := newEng(t)
	r, err := e.Define("orders")
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "orders" {
		t.Fatalf("name = %q", r.Name())
	}
	if _, err := e.Define("orders"); err == nil {
		t.Fatal("duplicate define accepted")
	}
	if _, err := e.Define(""); err == nil {
		t.Fatal("empty name accepted")
	}
	got, err := e.Get("orders")
	if err != nil || got != r {
		t.Fatalf("Get returned %v, %v", got, err)
	}
	if _, err := e.Get("nope"); err == nil {
		t.Fatal("unknown get accepted")
	}
	if err := e.Drop("orders"); err != nil {
		t.Fatal(err)
	}
	if err := e.Drop("orders"); err == nil {
		t.Fatal("double drop accepted")
	}
}

func TestNamesSorted(t *testing.T) {
	e := newEng(t)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if _, err := e.Define(n); err != nil {
			t.Fatal(err)
		}
	}
	names := e.Names()
	if len(names) != 3 || names[0] != "alpha" || names[2] != "zeta" {
		t.Fatalf("names = %v", names)
	}
}

func TestEstimateJoinAccuracy(t *testing.T) {
	e := newEng(t)
	f, _ := e.Define("f")
	g, _ := e.Define("g")
	exF, exG := exact.NewHistogram(), exact.NewHistogram()
	r := xrand.New(5)
	for i := 0; i < 50000; i++ {
		fv, gv := r.Uint64n(400), r.Uint64n(400)
		f.Insert(fv)
		exF.Insert(fv)
		g.Insert(gv)
		exG.Insert(gv)
	}
	je, err := e.EstimateJoin("f", "g")
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(exF.JoinSize(exG))
	if math.Abs(je.Estimate-truth) > 4*je.Sigma {
		t.Fatalf("estimate %.3g off truth %.3g beyond 4σ (σ=%.3g)", je.Estimate, truth, je.Sigma)
	}
	if je.Fact11 < truth*0.8 {
		t.Fatalf("Fact 1.1 bound %.3g implausibly below truth %.3g", je.Fact11, truth)
	}
	if je.SJF <= 0 || je.SJG <= 0 {
		t.Fatal("self-join estimates missing")
	}
	if _, err := e.EstimateJoin("f", "missing"); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if _, err := e.EstimateJoin("missing", "g"); err == nil {
		t.Fatal("unknown relation accepted")
	}
}

// TestRetiredFlatScheme: engines keep only the fast signature. A
// checkpoint whose scheme word names the retired flat scheme fails Open
// and UnmarshalBinary with an error that says so, and a flat-signature
// bundle — which the codec still decodes — is ErrIncompatible wherever it
// meets an engine.
func TestRetiredFlatScheme(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	f, err := e.Define("f")
	if err != nil {
		t.Fatal(err)
	}
	f.InsertBatch([]uint64{1, 2, 3, 2})
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	data, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// The same relation with a flat signature in place of the fast one,
	// so the signature is the only part that differs.
	fb := f.Cut()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	fam, err := join.NewFamily(durOpts("").SignatureWords, durOpts("").Seed)
	if err != nil {
		t.Fatal(err)
	}
	fb.Sig = fam.NewSignature()
	fb.Sig.InsertBatch([]uint64{1, 2, 3, 2})
	flatBundle, err := fb.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	version, payload, err := blob.Open(blob.MagicEngine, engineBlobVersionSkim, data)
	if err != nil {
		t.Fatal(err)
	}
	flat := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint32(flat[16:], 1) // the scheme word follows SignatureWords and Seed
	flatCkpt := blob.Seal(blob.MagicEngine, version, flat)
	var back Engine
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatalf("unpatched checkpoint: %v", err)
	}
	if err := back.UnmarshalBinary(flatCkpt); err == nil || !strings.Contains(err.Error(), "flat") {
		t.Fatalf("UnmarshalBinary of a flat-scheme checkpoint: err = %v, want one naming the flat scheme", err)
	}
	if err := os.WriteFile(filepath.Join(dir, checkpointFile), flatCkpt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(durOpts(dir)); err == nil || !strings.Contains(err.Error(), "flat") {
		t.Fatalf("Open of a flat-scheme checkpoint: err = %v, want one naming the flat scheme", err)
	}

	mem, err := New(durOpts(""))
	if err != nil {
		t.Fatal(err)
	}
	memF, err := mem.Define("f")
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.ImportRelation("g", flatBundle); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("ImportRelation of a flat bundle: err = %v, want ErrIncompatible", err)
	}
	if err := mem.MergeRelation("f", flatBundle); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("MergeRelation of a flat bundle: err = %v, want ErrIncompatible", err)
	}
	var decoded RelationBundle
	if err := decoded.UnmarshalBinary(flatBundle); err != nil {
		t.Fatal(err)
	}
	if _, err := EstimateJoinBundles(memF.Cut(), &decoded); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("EstimateJoinBundles over a flat bundle: err = %v, want ErrIncompatible", err)
	}
}

func TestRelationDeleteReversesInsert(t *testing.T) {
	e := newEng(t)
	f, _ := e.Define("f")
	f.Insert(9)
	f.Insert(9)
	if err := f.Delete(9); err != nil {
		t.Fatal(err)
	}
	if f.Len() != 1 {
		t.Fatalf("Len = %d", f.Len())
	}
	if got := f.SelfJoinEstimate(); got != 1 {
		t.Fatalf("SJ estimate = %v, want exactly 1 for single tuple", got)
	}
}

func TestBatchMatchesSingleOps(t *testing.T) {
	e := newEng(t)
	a, _ := e.Define("a")
	b, _ := e.Define("b")
	r := xrand.New(17)
	vs := make([]uint64, 4000)
	for i := range vs {
		vs[i] = r.Uint64n(200)
	}
	for _, v := range vs {
		a.Insert(v)
	}
	b.InsertBatch(vs)
	for _, v := range vs[:500] {
		if err := a.Delete(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.DeleteBatch(vs[:500]); err != nil {
		t.Fatal(err)
	}
	ca, cb := a.Cut().Sig.Counters(), b.Cut().Sig.Counters()
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("counter %d differs between single-op and batch ingest", i)
		}
	}
	if a.SelfJoinEstimate() != b.SelfJoinEstimate() {
		t.Fatal("self-join estimates differ between single-op and batch ingest")
	}
}

func TestEngineSerializationRoundTrip(t *testing.T) {
	e := newEng(t)
	r1, _ := e.Define("facts")
	r2, _ := e.Define("dims")
	rng := xrand.New(11)
	for i := 0; i < 5000; i++ {
		r1.Insert(rng.Uint64n(100))
		r2.Insert(rng.Uint64n(100))
	}
	before, err := e.EstimateJoin("facts", "dims")
	if err != nil {
		t.Fatal(err)
	}
	data, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Engine
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	after, err := back.EstimateJoin("facts", "dims")
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("estimate changed across round trip: %+v vs %+v", before, after)
	}
	// The restored engine keeps tracking.
	rel, err := back.Get("facts")
	if err != nil {
		t.Fatal(err)
	}
	rel.Insert(1)
	if rel.Len() != 5001 {
		t.Fatalf("restored relation Len = %d", rel.Len())
	}
}

func TestEngineUnmarshalRejectsCorruption(t *testing.T) {
	e := newEng(t)
	r, _ := e.Define("x")
	r.Insert(1)
	data, _ := e.MarshalBinary()
	var back Engine
	if err := back.UnmarshalBinary(data[:10]); err == nil {
		t.Error("truncated blob accepted")
	}
	bad := append([]byte(nil), data...)
	bad[9] ^= 0xff
	if err := back.UnmarshalBinary(bad); err == nil {
		t.Error("corrupted blob accepted")
	}

	// A sketch flag other than 0 or 1 is corrupt, also on a NoSketch
	// engine, where "not 1" must not read as "no sketch".
	ns, err := New(Options{SignatureWords: 64, Seed: 7, NoSketch: true})
	if err != nil {
		t.Fatal(err)
	}
	nr, _ := ns.Define("x")
	nr.Insert(1)
	sigBlob, err := nr.Cut().Sig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	withFlag := func(flag uint32) []byte {
		b, _ := ns.marshalHeader(engineBlobVersion, 0)
		b.String("x")
		b.Bytes(sigBlob)
		b.U32(flag)
		buildSchema(b, Schema{Attrs: []string{legacyAttr}})
		if err := buildChain(b, nil); err != nil {
			t.Fatal(err)
		}
		b.U64(1)
		return b.Seal()
	}
	if err := back.UnmarshalBinary(withFlag(0)); err != nil {
		t.Fatalf("hand-built checkpoint with sketch flag 0: %v", err)
	}
	if err := back.UnmarshalBinary(withFlag(2)); err == nil {
		t.Error("checkpoint with sketch flag 2 accepted")
	}
}

func TestEngineConcurrentUse(t *testing.T) {
	e := newEng(t)
	for _, n := range []string{"a", "b"} {
		if _, err := e.Define(n); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rel, err := e.Get([]string{"a", "b"}[w%2])
			if err != nil {
				t.Error(err)
				return
			}
			r := xrand.New(uint64(w))
			for i := 0; i < 2000; i++ {
				rel.Insert(r.Uint64n(50))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := e.EstimateJoin("a", "b"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	a, _ := e.Get("a")
	b, _ := e.Get("b")
	if a.Len()+b.Len() != 8000 {
		t.Fatalf("total tuples = %d, want 8000", a.Len()+b.Len())
	}
}

// TestParallelIngestLinearity is the linearity acceptance test: many
// goroutines hammering several relations with interleaved batch inserts
// and deletes must land on EXACTLY the synopses of the reference model
// fed one stream at a time — the counters are sums, sums commute. Run
// under -race in CI.
func TestParallelIngestLinearity(t *testing.T) {
	opts := Options{SignatureWords: 128, Seed: 3, SketchS1: 128, SketchS2: 4, Shards: 4}
	par, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	m := newModel(t, opts)
	relNames := []string{"r0", "r1", "r2"}
	for _, n := range relNames {
		if _, err := par.Define(n); err != nil {
			t.Fatal(err)
		}
		modelDefine(t, m, n, Schema{})
	}
	// Deterministic per-worker streams: worker w feeds relation w%3.
	const workers, perWorker = 8, 3000
	streams := make([][]uint64, workers)
	for w := range streams {
		r := xrand.New(uint64(100 + w))
		vs := make([]uint64, perWorker)
		for i := range vs {
			vs[i] = r.Uint64n(500)
		}
		streams[w] = vs
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rel, _ := par.Get(relNames[w%len(relNames)])
			vs := streams[w]
			// Mix of batch and single-op ingest, plus deletes of a prefix
			// the worker itself inserted (kept valid per relation).
			rel.InsertBatch(vs[:perWorker/2])
			for _, v := range vs[perWorker/2:] {
				rel.Insert(v)
			}
			if err := rel.DeleteBatch(vs[:perWorker/4]); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	// Single-stream reference, different interleaving on purpose.
	for w := workers - 1; w >= 0; w-- {
		rel := m.Relation(relNames[w%len(relNames)])
		vs := streams[w]
		for _, v := range vs {
			rel.Insert(v)
		}
		if err := rel.DeleteBatch(vs[:perWorker/4]); err != nil {
			t.Fatal(err)
		}
	}
	expectEngineMatchesModel(t, par, m)
}
