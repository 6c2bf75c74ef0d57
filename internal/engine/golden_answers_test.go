package engine

import (
	"math"
	"testing"

	"amstrack/internal/xrand"
)

// goldenAnswerBits pins every estimator's answer to its exact float64
// bits: the self-join answers from the dedicated sketch, from the
// signature's own counters and skimmed; the plain and the skimmed
// pairwise join with all five numbers; and one §5 chain join with every
// number. The refmodel checks share the synopsis code with the engine
// and the accuracy tests have tolerances, so this is what holds an
// estimator refactor to the same answers bit for bit. The bits were
// recorded before the sketch and the signature shared one counter grid;
// the skimmed ones again when a batch stopped overtaking the single ops
// staged before it, which moved where the delete wave meets the
// heavy-hitter tables.
var goldenAnswerBits = map[string]uint64{
	"selfjoin/sketch":      0x40f8d29000000000,
	"selfjoin/signature":   0x40f62be000000000,
	"selfjoin/skimmed":     0x40f6f46000000000,
	"join/sketch/estimate": 0x40f4e2e000000000,
	"join/sketch/sigma":    0x40c162bf782b9742,
	"join/sketch/fact11":   0x40f8969800000000,
	"join/sketch/sjf":      0x40f8d29000000000,
	"join/sketch/sjg":      0x40f85aa000000000,
	"join/skim/estimate":   0x40f4f7a000000000,
	"join/skim/sigma":      0x40c0b2cb8e8781ab,
	"join/skim/fact11":     0x40f79fe800000000,
	"join/skim/sjf":        0x40f6f46000000000,
	"join/skim/sjg":        0x40f84b7000000000,
	"chain/estimate":       0x410ba71b00000000,
	"chain/sigma":          0x41096eaff09c2e75,
	"chain/upper":          0x4120f4754b12c9a4,
	"chain/sjf":            0x40cac99000000000,
	"chain/sjg":            0x40933e8000000000,
	"chain/sjh":            0x40d1d84800000000,
}

// goldenAnswerRelation defines name and feeds it a skewed stream (value
// v in [0, 600) drawn with weight falling off like 1/(v+1)) through the
// batch and the per-op paths, then a delete wave.
func goldenAnswerRelation(t *testing.T, e *Engine, r *xrand.Rand, name string, schema Schema) *Relation {
	t.Helper()
	rel, err := e.DefineSchema(name, schema)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]uint64, 6000)
	for i := range vals {
		vals[i] = r.Uint64n(r.Uint64n(600) + 1)
	}
	rel.InsertBatch(vals[:4000])
	for _, v := range vals[4000:] {
		rel.Insert(v)
	}
	if err := rel.DeleteBatch(vals[:700]); err != nil {
		t.Fatal(err)
	}
	return rel
}

func TestAnswerGoldenBits(t *testing.T) {
	opts := Options{SignatureWords: 256, SignatureRows: 4, ChainWords: 64, Seed: 2468, SketchS1: 128, SketchS2: 4, Shards: 4}
	got := map[string]float64{}
	selfJoin := func(rel *Relation, want string) {
		sj, estimator := rel.SelfJoinEstimateDetail()
		if estimator != want {
			t.Errorf("%s: self-join estimator %q, want %q", rel.Name(), estimator, want)
		}
		got["selfjoin/"+estimator] = sj
	}
	pair := func(e *Engine, f, g, want string) {
		je, err := e.EstimateJoin(f, g)
		if err != nil {
			t.Fatal(err)
		}
		if je.Estimator != want {
			t.Errorf("%s ⋈ %s: estimator %q, want %q", f, g, je.Estimator, want)
		}
		p := "join/" + map[string]string{"sketch": "sketch", "skimmed": "skim"}[want] + "/"
		got[p+"estimate"], got[p+"sigma"], got[p+"fact11"] = je.Estimate, je.Sigma, je.Fact11
		got[p+"sjf"], got[p+"sjg"] = je.SJF, je.SJG
	}

	bareOpts := opts
	bareOpts.NoSketch = true
	bare, err := New(bareOpts)
	if err != nil {
		t.Fatal(err)
	}
	selfJoin(goldenAnswerRelation(t, bare, xrand.New(99), "f", Schema{}), "signature")

	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(99)
	selfJoin(goldenAnswerRelation(t, e, r, "f", Schema{}), "sketch")
	goldenAnswerRelation(t, e, r, "g", Schema{})
	pair(e, "f", "g", "sketch")
	selfJoin(goldenAnswerRelation(t, e, r, "fs", Schema{SkimHitters: 24}), "skimmed")
	goldenAnswerRelation(t, e, r, "gs", Schema{SkimHitters: 24})
	pair(e, "fs", "gs", "skimmed")

	cf, err := e.DefineSchema("cf", Schema{Attrs: []string{"a"}, EndA: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	cg, err := e.DefineSchema("cg", Schema{Attrs: []string{"a", "b"}, Middle: [][2]string{{"a", "b"}}})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := e.DefineSchema("ch", Schema{Attrs: []string{"b"}, EndB: []string{"b"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 800; i++ {
		cf.InsertTuple(r.Uint64n(40))
		cg.InsertTuple(r.Uint64n(40), r.Uint64n(40))
		ch.InsertTuple(r.Uint64n(40))
	}
	ce, err := e.EstimateChainJoin("cf", "a", "cg", "b", "ch")
	if err != nil {
		t.Fatal(err)
	}
	if ce.K != 64 {
		t.Errorf("chain K = %d, want 64", ce.K)
	}
	got["chain/estimate"], got["chain/sigma"], got["chain/upper"] = ce.Estimate, ce.Sigma, ce.Upper
	got["chain/sjf"], got["chain/sjg"], got["chain/sjh"] = ce.SJF, ce.SJG, ce.SJH

	if len(got) != len(goldenAnswerBits) {
		t.Errorf("computed %d answers, pinned %d", len(got), len(goldenAnswerBits))
	}
	for name, v := range got {
		want, ok := goldenAnswerBits[name]
		if !ok {
			t.Errorf("%s = %v (%#x): not pinned", name, v, math.Float64bits(v))
		} else if bits := math.Float64bits(v); bits != want {
			t.Errorf("%s = %v (%#x), pinned %v (%#x)", name, v, bits, math.Float64frombits(want), want)
		}
	}
}
