// Multi-node signature exchange: the AGMS synopses are linear in the
// frequency vector, so synopses built on disjoint partitions of a
// relation merge into EXACTLY the synopses of the union. This file turns
// that into a wire format: a RelationBundle packs one relation's complete
// synopsis set — join signature, Fast-AMS self-join sketch, row count —
// into a single self-describing blob that nodes export, ship, and import.
// The same struct is the engine's in-process read: a consistent cut of a
// relation (Relation.Cut), which every local answer is computed from.
// A coordinator that pulls per-partition bundles from N nodes and merges
// them answers join estimates over the union with zero accuracy loss
// (the merged counters are bit-identical to single-node ingest), provided
// every engine shares the hash families: equal Seed and shape options.
package engine

import (
	"errors"
	"fmt"

	"amstrack/internal/blob"
	"amstrack/internal/core"
	"amstrack/internal/join"
)

// ErrIncompatible marks a bundle whose synopsis shapes or hash-family
// seeds do not match the local engine's — mergeable only between engines
// configured with equal Seed and shape options. The amsd layer maps it to
// 409 Conflict, as distinct from a malformed blob (400).
var ErrIncompatible = errors.New("incompatible synopsis bundle")

// RelationBundle is one relation's exported synopsis set.
type RelationBundle struct {
	// Sig is the relation's join signature. Engines hold fast
	// signatures; the blob is self-describing via the inner frame magic,
	// so a flat one still decodes, and then fails the fold
	// (ErrIncompatible).
	Sig join.Signature
	// Sketch is the dedicated Fast-AMS self-join sketch, nil when the
	// exporting engine runs NoSketch.
	Sketch *core.FastTugOfWar
	// Rows is the relation's tuple count at export time.
	Rows int64
	// Chain is the relation's §5 chain section — its schema plus every
	// declared chain signature — nil for relations with the legacy
	// single-attribute, chainless schema. Chainless bundles marshal as
	// version-1 frames, byte-identical to pre-chain exports.
	Chain *ChainBundle
	// HH is the relation's heavy-hitter table (version 4), present
	// exactly when the exporting relation was defined with SkimHitters >
	// 0. Unlike everything else in the bundle it merges LOSSILY: demoted
	// hitters fall back to the (ingest-complete) sketch estimate, so a
	// merged bundle's skimmed answers can differ from single-node ingest
	// within the documented tolerance while its sketch and signature
	// halves stay bit-identical (DESIGN.md §13).
	HH *core.SpaceSaving
	// SkimHitters is the exporting relation's configured skim budget —
	// the number the importer writes into its schema so a re-export
	// round-trips. 0 exactly when HH is nil.
	SkimHitters int
	// Epoch and Seq are the freshness stamp (version 3). Epoch is the
	// exporting engine's durability-log generation (0 for in-memory
	// engines); Seq is the relation's logical version — mutation ops
	// applied since creation, deterministic, linear under merges (a
	// merged bundle's Seq is the sum of its parts), and reconstructed
	// exactly by crash recovery. A coordinator cache compares the stamp
	// from a cheap stat probe against the one on its cached bundle and
	// skips the transfer when nothing changed. Both zero on bundles from
	// pre-stamp engines and on virgin relations; such bundles marshal in
	// the old unstamped framing, byte-identical to pre-stamp exports.
	Epoch uint64
	Seq   uint64
}

// stamped reports whether the bundle carries a freshness stamp. A
// (0, 0) stamp means "no information": a virgin relation on a
// never-checkpointed engine, or a bundle from a pre-stamp engine.
func (b *RelationBundle) stamped() bool { return b.Epoch != 0 || b.Seq != 0 }

// ChainBundle is the chain half of an exported synopsis set: the
// relation's schema and its chain signatures in the canonical layout
// (EndA declarations, then EndB, then Middle pairs). Like everything
// else in the exchange path it is linear: partitions merge into exactly
// the chain section of the union.
type ChainBundle struct {
	Schema Schema
	Ends   []*join.ChainEndSignature
	Mids   []*join.ChainMiddleSignature
}

// Merge folds other into b. Schemas must be equal — declaration order
// included, since sections combine position by position — and every
// signature pair must come from one chain family (size and seed).
func (b *ChainBundle) Merge(other *ChainBundle) error {
	if other == nil {
		return fmt.Errorf("%w: one bundle carries a chain section, the other does not", ErrIncompatible)
	}
	if !b.Schema.equal(other.Schema) {
		return fmt.Errorf("%w: chain schemas differ", ErrIncompatible)
	}
	for i, s := range b.Ends {
		if err := s.Merge(other.Ends[i]); err != nil {
			return fmt.Errorf("%w: %v", ErrIncompatible, err)
		}
	}
	for i, s := range b.Mids {
		if err := s.Merge(other.Mids[i]); err != nil {
			return fmt.Errorf("%w: %v", ErrIncompatible, err)
		}
	}
	return nil
}

// End returns the (attr, side) chain end signature, or an
// ErrAttrNotTracked error.
func (b *ChainBundle) End(attr string, side int) (*join.ChainEndSignature, error) {
	i, ok := b.Schema.endIndex(attr, side)
	if !ok {
		return nil, fmt.Errorf("engine: %w: no %s-side chain end signature on %q", ErrAttrNotTracked, "AB"[side:side+1], attr)
	}
	return b.Ends[i], nil
}

// Mid returns the (attrA, attrB) chain middle signature, or an
// ErrAttrNotTracked error.
func (b *ChainBundle) Mid(attrA, attrB string) (*join.ChainMiddleSignature, error) {
	i, ok := b.Schema.midIndex(attrA, attrB)
	if !ok {
		return nil, fmt.Errorf("engine: %w: no chain middle signature on (%q, %q)", ErrAttrNotTracked, attrA, attrB)
	}
	return b.Mids[i], nil
}

// decode assembles a chain bundle from its decoded schema and raw
// signature blobs, cross-checking the section against the declarations.
// A legacy schema is rejected: legacy chainless relations serialize as
// version-1 frames with no chain section at all, and accepting one here
// would make the encoding non-canonical.
func (b *ChainBundle) decode(schema Schema, endBlobs, midBlobs [][]byte) error {
	if schema.legacy() {
		return errors.New("engine: chain bundle: legacy single-attribute schema has no chain section")
	}
	plan := schema.plan()
	if len(endBlobs) != len(plan.endAttr) || len(midBlobs) != len(plan.midA) {
		return fmt.Errorf("engine: chain bundle: %d end + %d middle signatures, schema declares %d + %d",
			len(endBlobs), len(midBlobs), len(plan.endAttr), len(plan.midA))
	}
	fresh := ChainBundle{Schema: schema}
	var k int
	var seed uint64
	for i, data := range endBlobs {
		s := &join.ChainEndSignature{}
		if err := s.UnmarshalBinary(data); err != nil {
			return fmt.Errorf("engine: chain bundle: %w", err)
		}
		if s.Attr() != plan.endSide[i] {
			return fmt.Errorf("engine: chain bundle: end signature %d bound to side %d, schema declares %d",
				i, s.Attr(), plan.endSide[i])
		}
		if err := checkChainShape(&k, &seed, s.MemoryWords(), s.Seed()); err != nil {
			return err
		}
		fresh.Ends = append(fresh.Ends, s)
	}
	for _, data := range midBlobs {
		s := &join.ChainMiddleSignature{}
		if err := s.UnmarshalBinary(data); err != nil {
			return fmt.Errorf("engine: chain bundle: %w", err)
		}
		if err := checkChainShape(&k, &seed, s.MemoryWords(), s.Seed()); err != nil {
			return err
		}
		fresh.Mids = append(fresh.Mids, s)
	}
	*b = fresh
	return nil
}

// checkChainShape pins every signature of one section to a single chain
// family (size and seed); the first signature seen sets the reference.
func checkChainShape(k *int, seed *uint64, gotK int, gotSeed uint64) error {
	if *k == 0 {
		*k, *seed = gotK, gotSeed
		return nil
	}
	if gotK != *k || gotSeed != *seed {
		return errors.New("engine: chain bundle: signatures from different chain families")
	}
	return nil
}

// SelfJoinEstimate estimates SJ(R) from the bundle (see
// SelfJoinEstimateDetail).
func (b *RelationBundle) SelfJoinEstimate() float64 {
	est, _ := b.SelfJoinEstimateDetail()
	return est
}

// SelfJoinEstimateDetail is the one self-join answer, for a local cut and
// a shipped bundle alike: the estimate with the name of the estimator
// that answered — "skimmed" (exact heavy hitters + sketched tail,
// DESIGN.md §13) when the bundle carries a heavy-hitter table and a
// sketch, "sketch" for the dedicated Fast-AMS sketch, "signature" for the
// join signature's own counters (NoSketch engines; §4.4's connection
// between the two halves of the paper).
func (b *RelationBundle) SelfJoinEstimateDetail() (float64, string) {
	switch {
	case b.Sketch == nil:
		return b.Sig.SelfJoinEstimate(), "signature"
	case b.HH != nil:
		return core.SkimmedEstimate(&b.Sketch.Grid, b.HH), "skimmed"
	}
	return b.Sketch.Estimate(), "sketch"
}

// Merge folds other into b: counters add, row counts add — by linearity
// the result is the bundle of the concatenated partition streams,
// bit-identical to one node having ingested both. Chain sections merge
// the same way (both bundles must carry one, or neither).
func (b *RelationBundle) Merge(other *RelationBundle) error {
	if b.Sig == nil {
		return errors.New("engine: merge into empty bundle (decode or export one first)")
	}
	if other == nil || other.Sig == nil {
		return errors.New("engine: nil bundle")
	}
	if err := b.Sig.Merge(other.Sig); err != nil {
		return fmt.Errorf("%w: %v", ErrIncompatible, err)
	}
	if (b.Sketch == nil) != (other.Sketch == nil) {
		return fmt.Errorf("%w: one bundle carries a self-join sketch, the other does not", ErrIncompatible)
	}
	if b.Sketch != nil {
		if err := b.Sketch.Merge(other.Sketch); err != nil {
			return fmt.Errorf("%w: %v", ErrIncompatible, err)
		}
	}
	if (b.Chain == nil) != (other.Chain == nil) {
		return fmt.Errorf("%w: one bundle carries a chain section, the other does not", ErrIncompatible)
	}
	if b.Chain != nil {
		if err := b.Chain.Merge(other.Chain); err != nil {
			return err
		}
	}
	// Heavy-hitter sections must agree in presence and shape: mixing a
	// skimmed and an unskimmed partition would silently degrade the
	// merged table's coverage, and unequal capacities or budgets mean the
	// exporting engines disagree on the relation's definition.
	if (b.HH == nil) != (other.HH == nil) {
		return fmt.Errorf("%w: one bundle carries a heavy-hitter section, the other does not", ErrIncompatible)
	}
	if b.HH != nil {
		if b.HH.Capacity() != other.HH.Capacity() || b.SkimHitters != other.SkimHitters {
			return fmt.Errorf("%w: heavy-hitter shapes differ (capacity %d/%d, budget %d/%d)",
				ErrIncompatible, b.HH.Capacity(), other.HH.Capacity(), b.SkimHitters, other.SkimHitters)
		}
		if err := b.HH.Merge(other.HH); err != nil {
			return fmt.Errorf("%w: %v", ErrIncompatible, err)
		}
	}
	b.Rows += other.Rows
	// The stamp merges like the counters: Seq is op counts, so disjoint
	// partitions sum to exactly the union's Seq — a coordinator's merged
	// bundle stays byte-identical to a single node holding all the data.
	// Epoch is per-engine metadata with no cross-node sum; keep the max.
	b.Seq += other.Seq
	if other.Epoch > b.Epoch {
		b.Epoch = other.Epoch
	}
	return nil
}

// relBundleVersion is the newest bundle frame version: version 2 added
// the schema + chain section; version 3 added the (Epoch, Seq)
// freshness stamp and an explicit chain-presence flag; version 4
// appended the heavy-hitter section (skim budget + table blob) after
// the chain section. Bundles without an HH table still marshal in the
// old framings — chainless as version 1, chain-carrying as version 2,
// stamped as version 3, all byte-identical to pre-skim exports — so the
// canonical-encoding property (equal bundles → equal bytes) holds
// across every upgrade. Non-canonical frames are rejected: a version-3
// frame with a zero stamp, or a version-4 frame at all without an HH
// section (version 4 always carries one; its stamp MAY be zero since
// the HH section alone forces the version).
const relBundleVersion = 4

// MarshalBinary packs the bundle as one blob: the signature blob, the
// optional sketch blob, the row count, then (version 3) the freshness
// stamp and a chain-presence flag, and finally the schema + chain
// section when present. The encoding is canonical — equal bundles
// marshal to equal bytes — which is what lets tests assert
// merged-vs-single bit-identity on the wire format itself.
func (b *RelationBundle) MarshalBinary() ([]byte, error) {
	if b.Sig == nil {
		return nil, errors.New("engine: bundle without signature")
	}
	sigBlob, err := b.Sig.MarshalBinary()
	if err != nil {
		return nil, err
	}
	version := uint8(1)
	switch {
	case b.HH != nil:
		version = relBundleVersion
	case b.stamped():
		version = 3
	case b.Chain != nil:
		version = 2
	}
	bb := blob.NewBuilder(blob.MagicRelBundle, version, len(sigBlob)+64)
	bb.Bytes(sigBlob)
	if b.Sketch == nil {
		bb.U32(0)
	} else {
		skBlob, err := b.Sketch.MarshalBinary()
		if err != nil {
			return nil, err
		}
		bb.U32(1)
		bb.Bytes(skBlob)
	}
	bb.I64(b.Rows)
	if version >= 3 {
		bb.U64(b.Epoch)
		bb.U64(b.Seq)
		if b.Chain != nil {
			bb.U32(1)
		} else {
			bb.U32(0)
		}
	}
	if b.Chain != nil {
		buildSchema(bb, b.Chain.Schema)
		if err := buildChain(bb, &shardChain{ends: b.Chain.Ends, mids: b.Chain.Mids}); err != nil {
			return nil, err
		}
	}
	if version >= 4 {
		hhBlob, err := b.HH.MarshalBinary()
		if err != nil {
			return nil, err
		}
		bb.U64(uint64(b.SkimHitters))
		bb.Bytes(hhBlob)
	}
	return bb.Seal(), nil
}

// UnmarshalBinary restores a bundle serialized by MarshalBinary. Corrupt,
// truncated, or foreign-magic input errors cleanly (never panics); the
// inner signature, sketch, and chain frames are verified by their own
// decoders.
func (b *RelationBundle) UnmarshalBinary(data []byte) error {
	version, payload, err := blob.Open(blob.MagicRelBundle, relBundleVersion, data)
	if err != nil {
		return fmt.Errorf("engine: relation bundle: %w", err)
	}
	c := blob.NewCursor(payload)
	sig, sketch, err := readSigSketch(c)
	if err != nil {
		return fmt.Errorf("engine: relation bundle: %w", err)
	}
	rows := c.I64()
	var epoch, seq uint64
	hasChain := version == 2
	if version >= 3 {
		epoch = c.U64()
		seq = c.U64()
		switch flag := c.U32(); flag {
		case 0:
		case 1:
			hasChain = true
		default:
			if c.Err() == nil {
				return fmt.Errorf("engine: relation bundle: chain flag %d out of range {0,1}", flag)
			}
		}
	}
	var chain *ChainBundle
	if hasChain {
		schema, err := readSchema(c)
		if err != nil {
			return fmt.Errorf("engine: relation bundle: %w", err)
		}
		endBlobs, midBlobs, err := readChainBlobs(c)
		if err != nil {
			return fmt.Errorf("engine: relation bundle: %w", err)
		}
		chain = &ChainBundle{}
		if err := chain.decode(schema, endBlobs, midBlobs); err != nil {
			return err
		}
	}
	var skimHitters uint64
	var hhBlob []byte
	if version >= 4 {
		// Version 4 frames ALWAYS carry the heavy-hitter section — an
		// HH-less bundle marshals as version ≤ 3, so a version-4 frame
		// without one would be non-canonical (and simply fails to
		// decode: the section is part of the fixed layout).
		skimHitters = c.U64()
		hhBlob = c.Bytes()
	}
	if err := c.Close(); err != nil {
		return fmt.Errorf("engine: relation bundle: %w", err)
	}
	if version == 3 && epoch == 0 && seq == 0 {
		// Zero-stamp bundles marshal in the unstamped framing; a
		// version-3 frame carrying one is non-canonical by construction.
		// (Version 4 accepts a zero stamp: the HH section alone forces
		// the version.)
		return errors.New("engine: relation bundle: version 3 frame without a freshness stamp")
	}
	var hh *core.SpaceSaving
	if version >= 4 {
		if hh, err = decodeHH(skimHitters, hhBlob); err != nil {
			return fmt.Errorf("engine: relation bundle: %w", err)
		}
	}
	b.Sig, b.Sketch, b.Rows, b.Chain = sig, sketch, rows, chain
	b.Epoch, b.Seq = epoch, seq
	b.HH, b.SkimHitters = hh, int(skimHitters)
	return nil
}

// readSigSketch reads and decodes the signature and the flagged
// self-join sketch that open both a bundle and a checkpoint's relation
// section. Engines write fast signatures only; a flat one still decodes
// here and fails the fold with ErrIncompatible.
func readSigSketch(c *blob.Cursor) (join.Signature, *core.FastTugOfWar, error) {
	sigBlob := c.Bytes()
	flag := c.U32()
	var skBlob []byte
	if flag == 1 {
		skBlob = c.Bytes()
	}
	if c.Err() != nil {
		return nil, nil, c.Err()
	}
	if flag > 1 {
		return nil, nil, fmt.Errorf("sketch flag %d out of range {0,1}", flag)
	}
	sig, err := join.UnmarshalSignature(sigBlob)
	if err != nil || flag == 0 {
		return sig, nil, err
	}
	sketch := &core.FastTugOfWar{}
	if err := sketch.UnmarshalBinary(skBlob); err != nil {
		return nil, nil, err
	}
	return sig, sketch, nil
}

// decodeHH decodes a heavy-hitter section: the skim budget and the
// relation-level table. The table's capacity is the budget rounded up to
// a shard multiple, so it can never be below the budget.
func decodeHH(hitters uint64, data []byte) (*core.SpaceSaving, error) {
	if hitters < 1 || hitters > maxSkimHitters {
		return nil, fmt.Errorf("skim budget %d out of range [1, %d]", hitters, maxSkimHitters)
	}
	hh := &core.SpaceSaving{}
	if err := hh.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	if hh.Capacity() < int(hitters) {
		return nil, fmt.Errorf("heavy-hitter capacity %d below skim budget %d", hh.Capacity(), hitters)
	}
	return hh, nil
}

// Epoch returns the engine's durability-log generation: 0 until the
// first checkpoint (and always 0 for in-memory engines), bumped by every
// checkpoint since. It travels in exported bundle stamps and the stat
// endpoint as per-engine freshness context.
func (e *Engine) Epoch() uint64 { return e.epoch.Load() }

// RelationStat is the cheap freshness probe behind the coordinator's
// delta-aware refresh: a cache holding a bundle stamped (Epoch, Seq)
// can skip re-fetching the synopses while a fresh stat reports the same
// stamp — Seq is deterministic and bumps with every mutation, so an
// equal stamp from a live engine means the bundle bytes have not
// changed. (After a crash that lost unsynced staged ops, a recovered
// engine re-counts from the persisted checkpoint stamp; DESIGN.md §11
// spells out the resulting staleness window and why the cache
// self-heals on the next mutation.)
type RelationStat struct {
	Epoch uint64
	Seq   uint64
	Rows  int64
}

// StatRelation reads the named relation's freshness stamp and row count
// without materializing synopses — one cut of (Seq, Rows) instead of a
// full export, which is what makes a skip probe worth issuing.
func (e *Engine) StatRelation(name string) (RelationStat, error) {
	r, err := e.Get(name)
	if err != nil {
		return RelationStat{}, err
	}
	epoch := e.Epoch()
	b, _ := r.ing.cut(false, false)
	return RelationStat{Epoch: epoch, Seq: b.Seq, Rows: b.Rows}, nil
}

// ExportRelation serializes one cut of the named relation (Relation.Cut)
// as a bundle blob for shipping to another node or a coordinator. The
// stamp and the synopses come from the same cut, so equal stamps from
// one engine mean equal bytes.
func (e *Engine) ExportRelation(name string) ([]byte, error) {
	r, err := e.Get(name)
	if err != nil {
		return nil, err
	}
	return r.Cut().MarshalBinary()
}

// ImportRelation defines a NEW relation from a shipped bundle — with the
// bundle's schema, chain section included. It fails with
// ErrAlreadyDefined when the name exists (use MergeRelation to fold into
// an existing relation) and with ErrIncompatible when the bundle's
// shapes or seeds differ from the engine's. In durable engines the
// imported counters arrive via checkpoint, not the oplog, so a checkpoint
// is written immediately — a crash right after import recovers the
// imported state.
func (e *Engine) ImportRelation(name string, data []byte) error {
	var b RelationBundle
	if err := b.UnmarshalBinary(data); err != nil {
		return err
	}
	if name == "" {
		return errors.New("engine: empty relation name")
	}
	schema := Schema{Attrs: []string{legacyAttr}}
	if b.Chain != nil {
		schema = b.Chain.Schema
	}
	// The skim budget travels outside the chain schema (it is synopsis
	// configuration, not schema identity), so restore it explicitly —
	// a skimmed bundle imports as a skimmed relation and re-exports the
	// same framing.
	schema.SkimHitters = b.SkimHitters
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.rels[name]; ok {
		return fmt.Errorf("engine: %w: %q", ErrAlreadyDefined, name)
	}
	r, err := e.newRelation(name, schema)
	if err != nil {
		return err
	}
	if err := r.absorbShipped(&b); err != nil {
		r.discard()
		return err
	}
	if err := r.log.create(e.fs, e.opts.Dir, name, e.epoch.Load(), e.opts.SegmentOps); err != nil {
		r.discard()
		return err
	}
	e.rels[name] = r
	if e.opts.Dir != "" {
		if _, err := e.checkpointLocked(); err != nil {
			return fmt.Errorf("engine: checkpoint after import: %w", err)
		}
	}
	return nil
}

// MergeRelation folds a shipped bundle into an EXISTING relation: by
// linearity the result is as if the bundle's source stream had been
// ingested locally. Durable engines checkpoint immediately afterwards,
// for the same reason as ImportRelation.
func (e *Engine) MergeRelation(name string, data []byte) error {
	var b RelationBundle
	if err := b.UnmarshalBinary(data); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.rels[name]
	if !ok {
		return UnknownRelation(name)
	}
	if err := r.absorbShipped(&b); err != nil {
		return err
	}
	if e.opts.Dir != "" {
		if _, err := e.checkpointLocked(); err != nil {
			return fmt.Errorf("engine: checkpoint after merge: %w", err)
		}
	}
	return nil
}

// absorbShipped folds a shipped bundle in (ImportRelation,
// MergeRelation). Engines that exchange skimmed bundles agree on
// SkimHitters and Shards (DESIGN.md §13), so a shipped table must have
// the local capacity; a checkpoint section, which absorbBundle folds
// directly, may reopen at another Shards and re-split its table.
func (r *Relation) absorbShipped(b *RelationBundle) error {
	if r.skims() && b.HH != nil && b.HH.Capacity() != r.skimCap() {
		return fmt.Errorf("%w: heavy-hitter capacity %d, the relation's is %d",
			ErrIncompatible, b.HH.Capacity(), r.skimCap())
	}
	return r.absorbBundle(b)
}

// absorbBundle is the one fold of a decoded synopsis set — a shipped
// bundle or a checkpoint section — into the relation's shard-0 synopses
// (linearity: equivalent to having streamed the source ops through the
// shards). Shape, seed, or schema mismatches report ErrIncompatible. The
// absorbers stay parked for the duration, so the merge writes shard
// state with no absorber running.
func (r *Relation) absorbBundle(b *RelationBundle) error {
	release, _ := r.ing.park(false)
	defer release()
	// Schemas must agree in both directions, like sketch presence below:
	// silently dropping a chain section (or absorbing a chainless bundle
	// into a chain-tracking relation) would desynchronize the chain
	// counters from the pairwise ones.
	switch {
	case b.Chain == nil && !r.schema.legacy():
		return fmt.Errorf("%w: bundle has the legacy single-attribute schema but the relation declares one", ErrIncompatible)
	case b.Chain != nil && !r.schema.equal(b.Chain.Schema):
		return fmt.Errorf("%w: bundle schema differs from the relation's", ErrIncompatible)
	}
	// Chain family compatibility is checked BEFORE any counters merge, so
	// a mismatch cannot leave the pairwise signature half-absorbed.
	// decode pinned the whole section to one family, so one
	// representative suffices.
	if b.Chain != nil && r.schema.hasChain() {
		fam := r.eng.chainFam
		var k int
		var seed uint64
		switch {
		case len(b.Chain.Ends) > 0:
			k, seed = b.Chain.Ends[0].MemoryWords(), b.Chain.Ends[0].Seed()
		case len(b.Chain.Mids) > 0:
			k, seed = b.Chain.Mids[0].MemoryWords(), b.Chain.Mids[0].Seed()
		}
		if k != 0 && (k != fam.K() || seed != fam.Seed()) {
			return fmt.Errorf("%w: chain family mismatch (k=%d seed=%d, engine has k=%d seed=%d)",
				ErrIncompatible, k, seed, fam.K(), fam.Seed())
		}
	}
	if err := r.shards[0].sig.Merge(b.Sig); err != nil {
		return fmt.Errorf("%w: %v", ErrIncompatible, err)
	}
	if b.Chain != nil && r.schema.hasChain() {
		sc := r.shards[0].chain
		for i, s := range sc.ends {
			if err := s.Merge(b.Chain.Ends[i]); err != nil {
				return fmt.Errorf("%w: %v", ErrIncompatible, err)
			}
		}
		for i, s := range sc.mids {
			if err := s.Merge(b.Chain.Mids[i]); err != nil {
				return fmt.Errorf("%w: %v", ErrIncompatible, err)
			}
		}
	}
	// Sketch presence must match in BOTH directions: silently dropping an
	// incoming sketch would change the exporting node's σ bounds on
	// re-export, surfacing as a confusing mismatch far from the cause.
	sk := r.shards[0].sketch
	if sk != nil && b.Sketch == nil {
		return fmt.Errorf("%w: bundle carries no self-join sketch but the engine tracks one", ErrIncompatible)
	}
	if sk == nil && b.Sketch != nil {
		return fmt.Errorf("%w: bundle carries a self-join sketch but the engine runs NoSketch", ErrIncompatible)
	}
	if sk != nil {
		if err := sk.Merge(b.Sketch); err != nil {
			return fmt.Errorf("%w: self-join sketch shape mismatch", ErrIncompatible)
		}
	}
	// Heavy-hitter presence must match in both directions too: absorbing
	// an unskimmed partition into a skimmed relation would leave that
	// partition's hitters invisible to the exact half (its mass counted
	// only by the sketch), skewing skimmed answers; the reverse silently
	// drops a table the exporter paid for.
	if r.skims() && b.HH == nil {
		return fmt.Errorf("%w: bundle carries no heavy-hitter table but the relation skims", ErrIncompatible)
	}
	if !r.skims() && b.HH != nil {
		return fmt.Errorf("%w: bundle carries a heavy-hitter table but the relation does not skim", ErrIncompatible)
	}
	if r.skims() {
		if b.HH.Seed() != r.eng.hhSeed() {
			return fmt.Errorf("%w: heavy-hitter seed mismatch (bundle %#x, engine %#x)", ErrIncompatible, b.HH.Seed(), r.eng.hhSeed())
		}
		if b.SkimHitters != r.schema.SkimHitters {
			return fmt.Errorf("%w: skim budgets differ (%d/%d)", ErrIncompatible, b.SkimHitters, r.schema.SkimHitters)
		}
		// The lossy fold: the bundle's hitters scatter onto their owning
		// shards and compete for slots there; demoted entries fall back
		// to the sketch, which absorbed the full partition above.
		r.scatterHH(b.HH)
	}
	// The absorbed ops advance the relation's logical version by the
	// bundle's own op count (zero for pre-stamp bundles), mirroring
	// RelationBundle.Merge — so import-then-export round-trips the stamp
	// and a partition merged node-side re-exports the same Seq a
	// coordinator-side merge would compute.
	r.shards[0].ops += b.Seq
	return nil
}

// EstimateChainBundles is the one chain answer: the §5 three-way
// estimate from three relation cuts or (already merged) shipped bundles,
// with the variance-envelope bounds computed from the chain signatures'
// own self-join estimates. All three bundles must carry chain sections
// from one chain family; bf needs an A-side end signature on attrA, bg a
// middle signature on (attrA, attrB), bh a B-side end signature on
// attrB.
func EstimateChainBundles(bf *RelationBundle, attrA string, bg *RelationBundle, attrB string, bh *RelationBundle) (ChainJoinEstimate, error) {
	for _, b := range []*RelationBundle{bf, bg, bh} {
		if b == nil || b.Chain == nil {
			return ChainJoinEstimate{}, fmt.Errorf("engine: %w: bundle carries no chain section", ErrAttrNotTracked)
		}
	}
	f, err := bf.Chain.End(attrA, 0)
	if err != nil {
		return ChainJoinEstimate{}, err
	}
	g, err := bg.Chain.Mid(attrA, attrB)
	if err != nil {
		return ChainJoinEstimate{}, err
	}
	h, err := bh.Chain.End(attrB, 1)
	if err != nil {
		return ChainJoinEstimate{}, err
	}
	est, err := join.EstimateChainJoin(f, g, h)
	if err != nil {
		return ChainJoinEstimate{}, fmt.Errorf("%w: %v", ErrIncompatible, err)
	}
	sjF, sjG, sjH := f.SelfJoinEstimate(), g.SelfJoinEstimate(), h.SelfJoinEstimate()
	k := g.MemoryWords()
	return ChainJoinEstimate{
		Estimate: est,
		Sigma:    join.ChainErrorBound(sjF, sjG, sjH, k),
		Upper:    join.ChainUpperBound(sjF, sjG, sjH),
		SJF:      sjF, SJG: sjG, SJH: sjH,
		K: k,
	}, nil
}
