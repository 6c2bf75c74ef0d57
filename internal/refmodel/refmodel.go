// Package refmodel is test support: an independent reference model of
// the synopsis engine (internal/engine).
//
// The engine's synopses are linear in the frequency vector (§2's
// tug-of-war counters, §4's join signatures, §5's chain signatures), so
// whatever order a multiset of ops arrives in — staged, sharded, applied
// by concurrent absorbers, checkpointed, replayed — the merged counters
// must equal those of plain sequential synopses fed the same ops, bit for
// bit. This package keeps exactly those plain synopses, one set per
// relation, built from the engine's documented shapes and seed
// derivations and nothing else:
//
//   - the join signature: a fast (bucketed) signature over
//     join.NewFastFamily(k/rows, rows, Seed), rows defaulting to the
//     largest of 8, 4, 2 that divides k with at least 16 buckets per row
//     (else 1);
//   - the Fast-AMS self-join sketch: core.NewFastTugOfWar with S1×S2
//     (default 1024×8) and seed Mix64(Seed ^ 0xa5a5_e19e_5e55_0001);
//   - the chain signatures: one family join.NewChainFamily(ChainWords,
//     Mix64(Seed ^ 0xc4a1_9e55_0bad_c0de)), end signatures in declaration
//     order (A side, then B side), then middle signatures;
//   - an exact histogram of the primary attribute and an op counter
//     (the engine's Seq: every mutation op counts one).
//
// The model never imports internal/engine, and must not: the engine's
// own tests import this package, so the compiler rejects an engine import
// as an import cycle, and the oracle cannot share code with what it
// checks. A lint in internal/hygiene also keeps it out of non-test code.
package refmodel

import (
	"errors"
	"fmt"
	"sort"

	"amstrack/internal/core"
	"amstrack/internal/exact"
	"amstrack/internal/join"
	"amstrack/internal/xrand"
)

// Config mirrors the engine options that shape the synopses. Zero
// fields take the engine's documented defaults.
type Config struct {
	SignatureWords int    // k, required
	SignatureRows  int    // fast-signature rows; 0 picks the default rule
	Seed           uint64 // master seed
	SketchS1       int    // 0 → 1024
	SketchS2       int    // 0 → 8
	NoSketch       bool   // no dedicated self-join sketch
	ChainWords     int    // 0 → SignatureWords
}

// Schema mirrors a relation's attribute set and chain declarations. The
// zero value is the single-attribute relation.
type Schema struct {
	Attrs      []string
	EndA, EndB []string
	Middle     [][2]string
}

// Model holds the plain synopses of every defined relation.
type Model struct {
	cfg      Config
	fastFam  *join.FastFamily
	skCfg    core.Config
	chainFam *join.ChainFamily // built by the first chain declaration
	rels     map[string]*Relation
}

// New builds an empty model.
func New(cfg Config) (*Model, error) {
	k := cfg.SignatureWords
	if k < 1 {
		return nil, fmt.Errorf("refmodel: SignatureWords = %d", k)
	}
	rows := cfg.SignatureRows
	if rows == 0 {
		rows = 1
		for _, r := range []int{8, 4, 2} {
			if k%r == 0 && k/r >= 16 {
				rows = r
				break
			}
		}
	}
	if k%rows != 0 {
		return nil, fmt.Errorf("refmodel: %d rows do not divide k = %d", rows, k)
	}
	fam, err := join.NewFastFamily(k/rows, rows, cfg.Seed)
	if err != nil {
		return nil, err
	}
	m := &Model{cfg: cfg, fastFam: fam, rels: map[string]*Relation{}}
	if !cfg.NoSketch {
		m.skCfg = core.Config{S1: 1024, S2: 8, Seed: xrand.Mix64(cfg.Seed ^ 0xa5a5_e19e_5e55_0001)}
		if cfg.SketchS1 != 0 {
			m.skCfg.S1 = cfg.SketchS1
		}
		if cfg.SketchS2 != 0 {
			m.skCfg.S2 = cfg.SketchS2
		}
	}
	if m.cfg.ChainWords == 0 {
		m.cfg.ChainWords = k
	}
	return m, nil
}

// Define adds an empty relation. It fails if the name exists or the
// schema names an undeclared attribute.
func (m *Model) Define(name string, s Schema) (*Relation, error) {
	if _, ok := m.rels[name]; ok {
		return nil, fmt.Errorf("refmodel: relation %q already defined", name)
	}
	attrs := s.Attrs
	if len(attrs) == 0 {
		attrs = []string{"value"}
	}
	index := func(a string) (int, error) {
		for i, x := range attrs {
			if x == a {
				return i, nil
			}
		}
		return 0, fmt.Errorf("refmodel: relation %q declares unknown attribute %q", name, a)
	}
	r := &Relation{arity: len(attrs), sig: m.fastFam.NewSignature(), hist: exact.NewHistogram()}
	if !m.cfg.NoSketch {
		sk, err := core.NewFastTugOfWar(m.skCfg)
		if err != nil {
			return nil, err
		}
		r.sketch = sk
	}
	if len(s.EndA)+len(s.EndB)+len(s.Middle) > 0 && m.chainFam == nil {
		fam, err := join.NewChainFamily(m.cfg.ChainWords, xrand.Mix64(m.cfg.Seed^0xc4a1_9e55_0bad_c0de))
		if err != nil {
			return nil, err
		}
		m.chainFam = fam
	}
	for side, decls := range [2][]string{s.EndA, s.EndB} {
		for _, a := range decls {
			i, err := index(a)
			if err != nil {
				return nil, err
			}
			end, err := m.chainFam.NewEndSignature(side)
			if err != nil {
				return nil, err
			}
			r.ends = append(r.ends, end)
			r.endAttr = append(r.endAttr, i)
		}
	}
	for _, p := range s.Middle {
		ia, err := index(p[0])
		if err != nil {
			return nil, err
		}
		ib, err := index(p[1])
		if err != nil {
			return nil, err
		}
		r.mids = append(r.mids, m.chainFam.NewMiddleSignature())
		r.midAttr = append(r.midAttr, [2]int{ia, ib})
	}
	m.rels[name] = r
	return r, nil
}

// Relation returns a defined relation, nil when absent.
func (m *Model) Relation(name string) *Relation { return m.rels[name] }

// Drop forgets a relation.
func (m *Model) Drop(name string) { delete(m.rels, name) }

// Names lists the defined relations in sorted order.
func (m *Model) Names() []string {
	names := make([]string, 0, len(m.rels))
	for n := range m.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Relation is one relation's plain synopsis set, fed one op at a time.
// It mirrors the engine relation's write surface, so test helpers can
// drive both through one interface.
type Relation struct {
	arity   int
	sig     join.Signature
	sketch  *core.FastTugOfWar // nil when the model runs NoSketch
	ends    []*join.ChainEndSignature
	endAttr []int
	mids    []*join.ChainMiddleSignature
	midAttr [][2]int
	hist    *exact.Histogram
	seq     uint64
	deleted bool
}

// errArity reports a tuple of the wrong width: a test bug, like the
// engine's arity panic.
var errArity = errors.New("refmodel: tuple width does not match the relation's arity")

// apply feeds one op to every synopsis. A delete of a value the
// histogram does not hold still updates the linear synopses (they are
// sums, and the engine applies it too) and is reported as an error.
func (r *Relation) apply(vals []uint64, del bool) error {
	if len(vals) != r.arity {
		return errArity
	}
	v := vals[0]
	r.seq++
	var err error
	if del {
		r.deleted = true
		_ = r.sig.Delete(v)
		if r.sketch != nil {
			_ = r.sketch.Delete(v)
		}
		for i, s := range r.ends {
			_ = s.Delete(vals[r.endAttr[i]])
		}
		for i, s := range r.mids {
			_ = s.Delete(vals[r.midAttr[i][0]], vals[r.midAttr[i][1]])
		}
		err = r.hist.Delete(v)
	} else {
		r.sig.Insert(v)
		if r.sketch != nil {
			r.sketch.Insert(v)
		}
		for i, s := range r.ends {
			s.Insert(vals[r.endAttr[i]])
		}
		for i, s := range r.mids {
			s.Insert(vals[r.midAttr[i][0]], vals[r.midAttr[i][1]])
		}
		r.hist.Insert(v)
	}
	return err
}

// Insert adds one single-attribute op.
func (r *Relation) Insert(v uint64) { _ = r.apply([]uint64{v}, false) }

// Delete removes one single-attribute op.
func (r *Relation) Delete(v uint64) error { return r.apply([]uint64{v}, true) }

// InsertBatch adds every value, one op each.
func (r *Relation) InsertBatch(vs []uint64) {
	for _, v := range vs {
		r.Insert(v)
	}
}

// DeleteBatch removes every value, one op each, reporting the first
// invalid delete.
func (r *Relation) DeleteBatch(vs []uint64) error {
	var first error
	for _, v := range vs {
		if err := r.Delete(v); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// InsertTuple adds one tuple of the relation's full attribute set.
func (r *Relation) InsertTuple(vals ...uint64) { _ = r.apply(vals, false) }

// DeleteTuple removes one tuple.
func (r *Relation) DeleteTuple(vals ...uint64) error { return r.apply(vals, true) }

// InsertTupleBatch adds every row, one op each.
func (r *Relation) InsertTupleBatch(rows [][]uint64) {
	for _, row := range rows {
		r.InsertTuple(row...)
	}
}

// DeleteTupleBatch removes every row, one op each, reporting the first
// invalid delete.
func (r *Relation) DeleteTupleBatch(rows [][]uint64) error {
	var first error
	for _, row := range rows {
		if err := r.DeleteTuple(row...); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Signature returns the relation's join signature (not a copy).
func (r *Relation) Signature() join.Signature { return r.sig }

// Sketch returns the Fast-AMS self-join sketch, nil under NoSketch.
func (r *Relation) Sketch() *core.FastTugOfWar { return r.sketch }

// Ends returns the chain end signatures in declaration order (A side,
// then B side).
func (r *Relation) Ends() []*join.ChainEndSignature { return r.ends }

// Mids returns the chain middle signatures in declaration order.
func (r *Relation) Mids() []*join.ChainMiddleSignature { return r.mids }

// Histogram returns the exact histogram of the primary attribute.
func (r *Relation) Histogram() *exact.Histogram { return r.hist }

// Seq returns the number of mutation ops applied.
func (r *Relation) Seq() uint64 { return r.seq }

// Rows returns the relation's tuple count as its signature tracks it.
func (r *Relation) Rows() int64 { return r.sig.Len() }

// InsertOnly reports whether no delete has been applied — the condition
// under which space-saving bounds (count − err ≤ f ≤ count) hold.
func (r *Relation) InsertOnly() bool { return !r.deleted }

// SelfJoinEstimate is the plain (unskimmed) self-join estimate: the
// sketch's when the model keeps one, else the signature's own.
func (r *Relation) SelfJoinEstimate() float64 {
	if r.sketch != nil {
		return r.sketch.Estimate()
	}
	return r.sig.SelfJoinEstimate()
}
