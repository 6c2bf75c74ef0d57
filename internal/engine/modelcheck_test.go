package engine

import (
	"bytes"
	"strings"
	"testing"

	"amstrack/internal/join"
	"amstrack/internal/refmodel"
)

// This file checks engines against internal/refmodel, the independent
// reference model: plain sequential synopses built from the engine's
// documented shapes and seeds. By linearity, a relation's exported
// bundle must match the model's synopses byte for byte however its ops
// were staged, sharded, checkpointed, or replayed.

// relWriter is the single-attribute write surface engine relations and
// model relations share, so one op script can drive both.
type relWriter interface {
	Insert(v uint64)
	Delete(v uint64) error
	InsertBatch(vs []uint64)
	DeleteBatch(vs []uint64) error
}

// newModel builds the reference model for an engine configuration,
// passing the options through un-normalized: the model applies the
// engine's documented defaults itself.
func newModel(t *testing.T, o Options) *refmodel.Model {
	t.Helper()
	m, err := refmodel.New(refmodel.Config{
		SignatureWords: o.SignatureWords,
		SignatureRows:  o.SignatureRows,
		Seed:           o.Seed,
		SketchS1:       o.SketchS1,
		SketchS2:       o.SketchS2,
		NoSketch:       o.NoSketch,
		ChainWords:     o.ChainWords,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// modelDefine defines a relation on the model with the engine schema's
// attribute and chain declarations.
func modelDefine(t *testing.T, m *refmodel.Model, name string, s Schema) *refmodel.Relation {
	t.Helper()
	r, err := m.Define(name, refmodel.Schema{Attrs: s.Attrs, EndA: s.EndA, EndB: s.EndB, Middle: s.Middle})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// marshalOf marshals a synopsis for byte comparison.
func marshalOf(t *testing.T, m interface{ MarshalBinary() ([]byte, error) }) []byte {
	t.Helper()
	b, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// expectRelationMatchesModel exports the named relation, decodes the
// bundle, and requires each linear part — signature, sketch, every chain
// signature — to be byte-identical to the model's, with equal Rows and
// Seq. The heavy-hitter table is order-sensitive and per-shard, so it is
// checked against the model's exact histogram instead: on insert-only
// streams every reported hitter satisfies count − err ≤ f ≤ count.
func expectRelationMatchesModel(t *testing.T, e *Engine, name string, m *refmodel.Relation) {
	t.Helper()
	data, err := e.ExportRelation(name)
	if err != nil {
		t.Fatal(err)
	}
	var b RelationBundle
	if err := b.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalOf(t, b.Sig), marshalOf(t, m.Signature())) {
		t.Fatalf("%s: signature differs from the reference model", name)
	}
	switch {
	case (b.Sketch == nil) != (m.Sketch() == nil):
		t.Fatalf("%s: sketch presence %v, model %v", name, b.Sketch != nil, m.Sketch() != nil)
	case b.Sketch != nil && !bytes.Equal(marshalOf(t, b.Sketch), marshalOf(t, m.Sketch())):
		t.Fatalf("%s: self-join sketch differs from the reference model", name)
	}
	var ends []*join.ChainEndSignature
	var mids []*join.ChainMiddleSignature
	if b.Chain != nil {
		ends, mids = b.Chain.Ends, b.Chain.Mids
	}
	if len(ends) != len(m.Ends()) || len(mids) != len(m.Mids()) {
		t.Fatalf("%s: %d+%d chain signatures, model has %d+%d", name, len(ends), len(mids), len(m.Ends()), len(m.Mids()))
	}
	for i, s := range ends {
		if !bytes.Equal(marshalOf(t, s), marshalOf(t, m.Ends()[i])) {
			t.Fatalf("%s: chain end signature %d differs from the reference model", name, i)
		}
	}
	for i, s := range mids {
		if !bytes.Equal(marshalOf(t, s), marshalOf(t, m.Mids()[i])) {
			t.Fatalf("%s: chain middle signature %d differs from the reference model", name, i)
		}
	}
	if b.Rows != m.Rows() || b.Seq != m.Seq() {
		t.Fatalf("%s: Rows %d Seq %d, model Rows %d Seq %d", name, b.Rows, b.Seq, m.Rows(), m.Seq())
	}
	if b.HH != nil && m.InsertOnly() {
		hist := m.Histogram()
		items := b.HH.Items()
		if len(items) > b.HH.Capacity() {
			t.Fatalf("%s: heavy-hitter table holds %d > capacity %d", name, len(items), b.HH.Capacity())
		}
		for _, h := range items {
			if f := hist.Frequency(h.Value); f < h.Count-h.Err || f > h.Count {
				t.Fatalf("%s: hitter %d reports count %d err %d, true frequency %d", name, h.Value, h.Count, h.Err, f)
			}
		}
	}
}

// expectEngineMatchesModel checks every relation of e against the model
// (same names, byte-identical bundles) and that the engine's answers are
// the model's: Len, the unskimmed self-join estimates, and the
// unskimmed pairwise join estimates with their bounds' inputs.
func expectEngineMatchesModel(t *testing.T, e *Engine, m *refmodel.Model) {
	t.Helper()
	names := e.Names()
	if got, want := strings.Join(names, ","), strings.Join(m.Names(), ","); got != want {
		t.Fatalf("relations %v, model has %v", got, want)
	}
	for _, n := range names {
		expectRelationMatchesModel(t, e, n, m.Relation(n))
		r, _ := e.Get(n)
		if r.Len() != m.Relation(n).Rows() {
			t.Fatalf("%s: Len %d, model %d", n, r.Len(), m.Relation(n).Rows())
		}
		if !r.skims() && r.SelfJoinEstimate() != m.Relation(n).SelfJoinEstimate() {
			t.Fatalf("%s: self-join estimate %v, model %v", n, r.SelfJoinEstimate(), m.Relation(n).SelfJoinEstimate())
		}
	}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			ri, _ := e.Get(names[i])
			rj, _ := e.Get(names[j])
			if ri.skims() && rj.skims() {
				continue // skimmed joins read the order-sensitive tables
			}
			je, err := e.EstimateJoin(names[i], names[j])
			if err != nil {
				t.Fatal(err)
			}
			mi, mj := m.Relation(names[i]), m.Relation(names[j])
			want, err := join.EstimateJoin(mi.Signature(), mj.Signature())
			if err != nil {
				t.Fatal(err)
			}
			// Each side's SJ is its own self-join answer: the model's plain
			// one, or — for a skimming side, whose answer reads the
			// order-sensitive table — the relation's own skimmed answer.
			wantSJ := func(r *Relation, mr *refmodel.Relation) float64 {
				if r.skims() {
					return r.SelfJoinEstimate()
				}
				return mr.SelfJoinEstimate()
			}
			sjF, sjG := wantSJ(ri, mi), wantSJ(rj, mj)
			if je.Estimate != want || je.SJF != sjF || je.SJG != sjG {
				t.Fatalf("%s⋈%s: engine %+v, want estimate %v SJ %v/%v", names[i], names[j], je, want, sjF, sjG)
			}
		}
	}
}
