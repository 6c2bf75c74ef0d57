// Multi-attribute relations: the schema layer behind the §5 chain-join
// extension. A relation may declare an ATTRIBUTE SET instead of the
// historical single joining attribute; ingest then fans every tuple into
// per-attribute chain synopses — a ChainEndSignature for each attribute
// declared as a chain end, a ChainMiddleSignature for each declared
// attribute pair — next to the pairwise signature and self-join sketch,
// which keep tracking the PRIMARY attribute (attribute 0) exactly as the
// single-attribute engine did. All chain synopses are sharded alongside
// the pairwise signature and updated by the same absorbers, so
// everything the engine guarantees about bit-identical merged counters
// extends to chains unchanged.
package engine

import (
	"errors"
	"fmt"

	"amstrack/internal/blob"
	"amstrack/internal/join"
)

// maxArity caps a schema's attribute count. The oplog's tuple records
// carry up to 255 attributes; the engine stops far earlier — a relation
// with dozens of tracked attributes is a modeling bug, not a workload.
const maxArity = 16

// legacyAttr is the attribute name of the implicit single-attribute
// schema, so Schema{} and pre-schema engines describe the same relation.
const legacyAttr = "value"

// Schema declares a relation's attribute set and which chain synopses
// its ingest maintains. The zero value is the legacy single-attribute
// schema: one attribute named "value", no chain synopses.
type Schema struct {
	// Attrs names the tuple attributes, in the order InsertTuple and
	// DeleteTuple supply values. Attribute 0 is the PRIMARY attribute: it
	// feeds the pairwise join signature and the self-join sketch, exactly
	// as the single-attribute engine did, so Len, SelfJoinEstimate, and
	// EstimateJoin keep their meaning. Empty means []string{"value"}.
	Attrs []string
	// EndA and EndB list attributes that maintain a chain-END signature
	// bound to the A side (chain attribute 0) / B side (chain attribute 1)
	// of the §5 three-way estimator F ⋈a G ⋈b H.
	EndA, EndB []string
	// Middle lists [aAttr, bAttr] pairs that maintain a chain-MIDDLE
	// signature: the A-side sign of aAttr times the B-side sign of bAttr.
	Middle [][2]string
	// SkimHitters > 0 turns on SKIMMED synopses for the relation
	// (DESIGN.md §13): a deterministic space-saving heavy-hitter table
	// of about that many entries rides next to the (still
	// ingest-complete) signature and sketch, keyed by the primary
	// attribute, and self-join/join estimates are answered as
	// exact(hitters) + sketch(cross + tail) — the skew-robust
	// decomposition. The budget is split evenly across the engine's
	// shards (rounded up), so the effective table capacity is
	// ceil(SkimHitters/Shards)·Shards. Zero means no skimming — the
	// relation's checkpoints and bundles stay byte-identical to
	// pre-skimming framings. Unlike the attribute declarations,
	// SkimHitters is NOT part of bundle schema identity; skim
	// compatibility is checked against the HH section itself.
	SkimHitters int
}

// maxSkimHitters caps the heavy-hitter budget: the table is the exact
// half of a small synopsis, not a histogram.
const maxSkimHitters = 1 << 20

// normalizeSchema fills the legacy default and validates: unique
// non-empty attribute names, every chain declaration referencing a
// declared attribute, no duplicate declarations. The returned schema owns
// its slices.
func normalizeSchema(s Schema) (Schema, error) {
	if s.SkimHitters < 0 || s.SkimHitters > maxSkimHitters {
		return s, fmt.Errorf("engine: schema skim hitters %d outside [0, %d]", s.SkimHitters, maxSkimHitters)
	}
	if len(s.Attrs) == 0 {
		if len(s.EndA)+len(s.EndB)+len(s.Middle) == 0 {
			return Schema{Attrs: []string{legacyAttr}, SkimHitters: s.SkimHitters}, nil
		}
		return s, errors.New("engine: schema declares chain synopses but no attributes")
	}
	if len(s.Attrs) > maxArity {
		return s, fmt.Errorf("engine: schema has %d attributes, max %d", len(s.Attrs), maxArity)
	}
	out := Schema{
		Attrs:       append([]string(nil), s.Attrs...),
		EndA:        append([]string(nil), s.EndA...),
		EndB:        append([]string(nil), s.EndB...),
		Middle:      append([][2]string(nil), s.Middle...),
		SkimHitters: s.SkimHitters,
	}
	seen := map[string]bool{}
	for _, a := range out.Attrs {
		if a == "" {
			return s, errors.New("engine: schema has an empty attribute name")
		}
		if seen[a] {
			return s, fmt.Errorf("engine: schema attribute %q duplicated", a)
		}
		seen[a] = true
	}
	for side, decls := range [2][]string{out.EndA, out.EndB} {
		dup := map[string]bool{}
		for _, a := range decls {
			if !seen[a] {
				return s, fmt.Errorf("engine: chain end declares unknown attribute %q", a)
			}
			if dup[a] {
				return s, fmt.Errorf("engine: chain end side %d declares %q twice", side, a)
			}
			dup[a] = true
		}
	}
	dup := map[[2]string]bool{}
	for _, p := range out.Middle {
		if !seen[p[0]] || !seen[p[1]] {
			return s, fmt.Errorf("engine: chain middle declares unknown attribute pair %v", p)
		}
		if dup[p] {
			return s, fmt.Errorf("engine: chain middle pair %v declared twice", p)
		}
		dup[p] = true
	}
	return out, nil
}

// arity returns the attribute count.
func (s Schema) arity() int { return len(s.Attrs) }

// hasChain reports whether any chain synopsis is declared.
func (s Schema) hasChain() bool { return len(s.EndA)+len(s.EndB)+len(s.Middle) > 0 }

// legacy reports whether the schema is the implicit single-attribute one
// — the shape serialized engines omit (version-1 blobs have no schema
// section at all).
func (s Schema) legacy() bool {
	return len(s.Attrs) == 1 && s.Attrs[0] == legacyAttr && !s.hasChain()
}

// equal reports deep equality, declaration order included — the
// compatibility requirement for bundle merges: chain sections combine
// position by position, so layouts must match exactly.
func (s Schema) equal(o Schema) bool {
	if len(s.Attrs) != len(o.Attrs) || len(s.EndA) != len(o.EndA) ||
		len(s.EndB) != len(o.EndB) || len(s.Middle) != len(o.Middle) {
		return false
	}
	for i, a := range s.Attrs {
		if o.Attrs[i] != a {
			return false
		}
	}
	for i, a := range s.EndA {
		if o.EndA[i] != a {
			return false
		}
	}
	for i, a := range s.EndB {
		if o.EndB[i] != a {
			return false
		}
	}
	for i, p := range s.Middle {
		if o.Middle[i] != p {
			return false
		}
	}
	return true
}

// attrIndex resolves an attribute name.
func (s Schema) attrIndex(name string) (int, bool) {
	for i, a := range s.Attrs {
		if a == name {
			return i, true
		}
	}
	return 0, false
}

// endIndex returns the position of the (attr, side) end signature in the
// canonical chain layout: all EndA declarations first, then all EndB.
func (s Schema) endIndex(attr string, side int) (int, bool) {
	if side == 0 {
		for i, a := range s.EndA {
			if a == attr {
				return i, true
			}
		}
		return 0, false
	}
	for i, a := range s.EndB {
		if a == attr {
			return len(s.EndA) + i, true
		}
	}
	return 0, false
}

// midIndex returns the position of the (aAttr, bAttr) middle signature.
func (s Schema) midIndex(aAttr, bAttr string) (int, bool) {
	for i, p := range s.Middle {
		if p[0] == aAttr && p[1] == bAttr {
			return i, true
		}
	}
	return 0, false
}

// buildSchema appends the schema's wire form to a blob payload.
func buildSchema(b *blob.Builder, s Schema) {
	b.U32(uint32(len(s.Attrs)))
	for _, a := range s.Attrs {
		b.String(a)
	}
	b.U32(uint32(len(s.EndA)))
	for _, a := range s.EndA {
		b.String(a)
	}
	b.U32(uint32(len(s.EndB)))
	for _, a := range s.EndB {
		b.String(a)
	}
	b.U32(uint32(len(s.Middle)))
	for _, p := range s.Middle {
		b.String(p[0])
		b.String(p[1])
	}
}

// readSchema decodes and validates a schema written by buildSchema. The
// encoding is canonical: a valid schema re-marshals byte-identically
// (normalizeSchema never rewrites explicit declarations), which the
// bundle fuzzers assert on the whole frame.
func readSchema(c *blob.Cursor) (Schema, error) {
	var s Schema
	nAttrs := c.U32()
	if c.Err() == nil && (nAttrs == 0 || nAttrs > maxArity) {
		return s, fmt.Errorf("engine: schema section: %d attributes", nAttrs)
	}
	for i := uint32(0); i < nAttrs && c.Err() == nil; i++ {
		s.Attrs = append(s.Attrs, c.String())
	}
	nA := c.U32()
	for i := uint32(0); i < nA && c.Err() == nil; i++ {
		s.EndA = append(s.EndA, c.String())
	}
	nB := c.U32()
	for i := uint32(0); i < nB && c.Err() == nil; i++ {
		s.EndB = append(s.EndB, c.String())
	}
	nM := c.U32()
	if c.Err() == nil && nM > maxArity*maxArity {
		return s, fmt.Errorf("engine: schema section: %d middle pairs", nM)
	}
	for i := uint32(0); i < nM && c.Err() == nil; i++ {
		s.Middle = append(s.Middle, [2]string{c.String(), c.String()})
	}
	if c.Err() != nil {
		return s, fmt.Errorf("engine: schema section: %w", c.Err())
	}
	return normalizeSchema(s)
}

// chainPlan is the per-relation fan-out table compiled from a schema:
// which attribute index feeds each chain signature. Indices follow the
// canonical layout (EndA declarations, then EndB, then Middle pairs) —
// the same order shardChain, ChainBundle, and the checkpoint use.
type chainPlan struct {
	endAttr []int // attribute index feeding each end signature
	endSide []int // 0 (A side) or 1 (B side)
	midA    []int // A-side attribute index per middle signature
	midB    []int
}

// plan compiles the schema's fan-out table.
func (s Schema) plan() chainPlan {
	var p chainPlan
	for side, decls := range [2][]string{s.EndA, s.EndB} {
		for _, a := range decls {
			i, _ := s.attrIndex(a)
			p.endAttr = append(p.endAttr, i)
			p.endSide = append(p.endSide, side)
		}
	}
	for _, pair := range s.Middle {
		ia, _ := s.attrIndex(pair[0])
		ib, _ := s.attrIndex(pair[1])
		p.midA = append(p.midA, ia)
		p.midB = append(p.midB, ib)
	}
	return p
}

// shardChain is one shard's chain synopsis set, laid out per the
// relation's chainPlan. Like the shard's pairwise signature, it is owned
// by the shard's absorber goroutine.
type shardChain struct {
	ends []*join.ChainEndSignature
	mids []*join.ChainMiddleSignature
}

// newShardChain builds an empty chain set for one shard.
func newShardChain(fam *join.ChainFamily, p *chainPlan) (*shardChain, error) {
	sc := &shardChain{}
	for i := range p.endAttr {
		s, err := fam.NewEndSignature(p.endSide[i])
		if err != nil {
			return nil, err
		}
		sc.ends = append(sc.ends, s)
	}
	for range p.midA {
		sc.mids = append(sc.mids, fam.NewMiddleSignature())
	}
	return sc, nil
}

// chainCols is a batch of tuples split into per-attribute columns,
// inserts and deletes apart: ins[j][i] is attribute j of the i-th
// inserted tuple. Its owner (a shard's absorber, or one log replay)
// reuses the buffers from batch to batch.
type chainCols struct {
	ins, del [][]uint64
}

// newChainCols returns empty columns for tuples of the given arity.
func newChainCols(arity int) *chainCols {
	return &chainCols{ins: make([][]uint64, arity), del: make([][]uint64, arity)}
}

// reset empties the columns, keeping their buffers.
func (c *chainCols) reset() {
	for j := range c.ins {
		c.ins[j], c.del[j] = c.ins[j][:0], c.del[j][:0]
	}
}

// gather sets the columns to the tuples of an absorber message.
func (c *chainCols) gather(ops []stagedOp) {
	c.reset()
	for _, op := range ops {
		c.add(op.v, op.tail(), op.del)
	}
}

// add appends the tuple (v, rest...) to the insert or delete columns.
func (c *chainCols) add(v uint64, rest []uint64, del bool) {
	cols := c.ins
	if del {
		cols = c.del
	}
	cols[0] = append(cols[0], v)
	for j, x := range rest {
		cols[j+1] = append(cols[j+1], x)
	}
}

// apply feeds a batch of tuple columns into every chain synopsis, one
// batch per synopsis and direction: the single entry point of ingest and
// log replay. Chain signatures never error on deletes (pure linearity).
func (sc *shardChain) apply(p *chainPlan, c *chainCols) {
	for i, s := range sc.ends {
		j := p.endAttr[i]
		s.InsertBatch(c.ins[j])
		_ = s.DeleteBatch(c.del[j])
	}
	for i, s := range sc.mids {
		a, b := p.midA[i], p.midB[i]
		s.InsertBatch(c.ins[a], c.ins[b])
		_ = s.DeleteBatch(c.del[a], c.del[b])
	}
}

// merge folds other's counters into sc. Same-relation shards share one
// family and layout, so a mismatch is an engine invariant violation.
func (sc *shardChain) merge(other *shardChain) {
	if len(other.ends) != len(sc.ends) || len(other.mids) != len(sc.mids) {
		panic("engine: chain shard layout mismatch")
	}
	for i, s := range sc.ends {
		if err := s.Merge(other.ends[i]); err != nil {
			panic(fmt.Sprintf("engine: chain shard snapshot: %v", err))
		}
	}
	for i, s := range sc.mids {
		if err := s.Merge(other.mids[i]); err != nil {
			panic(fmt.Sprintf("engine: chain shard snapshot: %v", err))
		}
	}
}
