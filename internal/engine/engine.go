// Package engine is the synopsis engine: the deployment shape the
// paper's §4–§5 argue for, grown from the old signature catalog into a
// durable, concurrent service core. Each named relation carries a
// configurable synopsis set —
//
//   - a JOIN SIGNATURE (§4.3) for pairwise join-size estimates: the
//     bucketed FastTWSignature (O(rows) per tuple however large k grows);
//   - a FAST-AMS SELF-JOIN SKETCH (core.FastTugOfWar) whose estimate
//     feeds the Lemma 4.4 σ and Fact 1.1 bounds attached to every join
//     answer;
//
// behind per-relation sharded ingest: each relation's sequencer logs every
// batch whole, in arrival order, then hands each shard its rows, and one
// absorber goroutine per shard applies them to shard-local synopses with
// no lock (linearity makes the merged counters independent of how the
// shards interleave; absorber.go). Callers split their batches by shard
// in parallel; single ops stage in one run per kind under the relation's
// mutex. Every read is one consistent cut of a relation — a
// RelationBundle — and every join answer comes from one function over two
// cuts (EstimateJoinBundles).
//
// Durability follows §5's warehouse recipe: every update is
// group-committed to a per-relation operation log, Checkpoint()
// serializes the whole engine into one blob (shared internal/blob
// framing) behind an epoch fence and retires the logs, and Open()
// recovers by loading the checkpoint and "stepping through any additions
// to the update log since the previous run" — including truncating a
// torn tail left by a crash mid-append.
package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"amstrack/internal/blob"
	"amstrack/internal/core"
	"amstrack/internal/exact"
	"amstrack/internal/hash"
	"amstrack/internal/join"
	"amstrack/internal/oplog"
	"amstrack/internal/xrand"
)

// Sentinel errors callers (e.g. the amsd HTTP layer) can match with
// errors.Is to map failures onto their own status vocabulary.
var (
	ErrUnknownRelation = errors.New("unknown relation")
	ErrAlreadyDefined  = errors.New("relation already defined")
	// ErrAttrNotTracked marks a chain-join request naming an attribute the
	// relation's schema does not carry the required chain synopsis for.
	// The amsd layer maps it to 409 Conflict: the relation exists, but its
	// declared synopsis set cannot answer the question.
	ErrAttrNotTracked = errors.New("attribute not tracked")
)

// UnknownRelation is the error for a name no relation holds: the one
// text every tier answers a missing relation with.
func UnknownRelation(name string) error {
	return fmt.Errorf("engine: %w: %q", ErrUnknownRelation, name)
}

// IngestMode names the engine's write path. There is one: the absorber
// pipeline (absorber.go). The type survives as a source-compatibility
// field so callers that spell the path out keep compiling; both values
// select the same path, and New and Open reject any other value.
type IngestMode int

// The two accepted IngestMode values. The numeric value 1 belonged to a
// retired synchronous path and is now an error, like any other unknown
// value; IngestAbsorber keeps its historical value 2.
const (
	// IngestDefault resolves to IngestAbsorber.
	IngestDefault IngestMode = 0
	// IngestAbsorber is the one write path: a per-relation sequencer
	// group-commits each batch to the oplog in arrival order and hands
	// each shard its rows, and one absorber goroutine per shard applies
	// them under single-writer discipline. Single ops stage in one run
	// per kind under the relation's mutex. Queries drain staged ops
	// first, so reads see the caller's own writes; the durability
	// barrier is Sync/Checkpoint/drain.
	IngestAbsorber IngestMode = 2
)

// String returns the conventional mode name.
func (m IngestMode) String() string {
	switch m {
	case IngestDefault:
		return "default"
	case IngestAbsorber:
		return "absorber"
	}
	return fmt.Sprintf("IngestMode(%d)", int(m))
}

// Defaults applied by Options.normalize.
const (
	defaultShards   = 4
	defaultSketchS1 = 1024
	defaultSketchS2 = 8
	// minFastBuckets is the smallest per-row bucket count the automatic
	// rows choice will produce: below this, bucket collisions dominate
	// and the signature loses its accuracy parity with the paper's flat
	// one.
	minFastBuckets = 16
	// defaultStageOps is the capacity in rows of each staged run (one
	// for inserts, one for deletes): large enough to amortize the send
	// (shard split, queue handoff, one log record) to a few ns per op,
	// small enough that a run's worth of staged ops is an invisible
	// latency at query time.
	defaultStageOps = 256
)

// Options configures an engine. The zero value of every field except
// SignatureWords selects a sensible default.
type Options struct {
	// SignatureWords is k, the per-relation join-signature size in memory
	// words (buckets·rows). Required.
	SignatureWords int
	// Seed fixes every hash family the engine derives; engines that must
	// exchange signatures (e.g. across nodes) need equal Seed and shape
	// parameters.
	Seed uint64
	// SignatureRows is the signature's row count (the per-update cost
	// and confidence knob). 0 picks the largest of 8, 4, 2, 1 that
	// divides SignatureWords while keeping at least 16 buckets per row.
	// Must divide SignatureWords and be at most hash.MaxTab4Rows.
	SignatureRows int
	// SketchS1, SketchS2 shape the per-relation Fast-AMS self-join
	// sketch (0 → 1024 and 8; SketchS2 is at most hash.MaxTab4Rows).
	// The sketch refines the self-join
	// estimates behind the σ and Fact 1.1 bounds beyond what the join
	// signature's own counters give.
	SketchS1, SketchS2 int
	// NoSketch drops the dedicated self-join sketch; self-join estimates
	// then come from the join signature's counters (the §4.4 connection).
	NoSketch bool
	// Shards is the per-relation ingest parallelism (rounded up to a
	// power of two; 0 → 4). Purely a concurrency knob: by linearity the
	// merged synopses are independent of the shard count.
	Shards int
	// Dir enables oplog-backed durability when non-empty: per-relation
	// logs and checkpoints live there. Empty means in-memory only.
	Dir string
	// IngestMode is a source-compatibility field: IngestDefault and
	// IngestAbsorber both select the one write path (normalized to
	// IngestAbsorber); any other value is an error.
	IngestMode IngestMode
	// SegmentOps caps each oplog file at about this many rows: once a
	// segment holds SegmentOps rows, the relation rolls onto a numbered
	// next segment before its next record, so no single log file (and no
	// single recovery read) grows without bound between checkpoints. A
	// record is never split at a roll, so a segment may exceed SegmentOps
	// by less than one record. 0 disables rolling.
	SegmentOps int64
	// ChainWords is k for the §5 chain signatures — the per-signature
	// memory (and accuracy) of every chain end and middle signature a
	// relation schema declares (0 → SignatureWords). Engines that exchange
	// chain signatures across nodes need equal ChainWords and Seed.
	ChainWords int
	// CheckpointInterval enables the background checkpointer: the engine
	// takes a checkpoint roughly every interval (jittered ±10% so a fleet
	// of daemons does not checkpoint in lockstep). 0 disables the timer.
	// Durable engines only.
	CheckpointInterval time.Duration
	// CheckpointSegments triggers a background checkpoint whenever any
	// relation's live oplog segment count reaches this threshold — the
	// knob that bounds log volume (and recovery time) under sustained
	// load regardless of the timer. 0 disables the trigger. Requires
	// SegmentOps (segment rolling) to have any effect.
	CheckpointSegments int
	// FS is the filesystem seam for all durability I/O (nil → the real
	// filesystem). Tests inject an oplog.FaultFS here to fail fsync, run
	// out of space, or crash at named points in the commit protocol.
	FS oplog.FS

	// stageOps is the test seam for the staged-run capacity in rows; 0
	// means defaultStageOps.
	stageOps int
}

// normalize fills defaults and checks consistency.
func (o Options) normalize() (Options, error) {
	if o.SignatureWords < 1 {
		return o, fmt.Errorf("engine: SignatureWords = %d, must be >= 1", o.SignatureWords)
	}
	if o.SignatureRows == 0 {
		o.SignatureRows = 1
		for _, r := range []int{8, 4, 2} {
			if o.SignatureWords%r == 0 && o.SignatureWords/r >= minFastBuckets {
				o.SignatureRows = r
				break
			}
		}
	}
	if o.SignatureRows < 1 || o.SignatureRows > hash.MaxTab4Rows || o.SignatureWords%o.SignatureRows != 0 {
		return o, fmt.Errorf("engine: SignatureRows = %d must be in [1, %d] and divide SignatureWords = %d",
			o.SignatureRows, hash.MaxTab4Rows, o.SignatureWords)
	}
	if o.NoSketch {
		o.SketchS1, o.SketchS2 = 0, 0
	} else {
		if o.SketchS1 == 0 {
			o.SketchS1 = defaultSketchS1
		}
		if o.SketchS2 == 0 {
			o.SketchS2 = defaultSketchS2
		}
		if o.SketchS1 < 1 || o.SketchS2 < 1 || o.SketchS2 > hash.MaxTab4Rows {
			return o, fmt.Errorf("engine: sketch config %dx%d invalid (rows must be in [1, %d])",
				o.SketchS1, o.SketchS2, hash.MaxTab4Rows)
		}
	}
	if o.Shards == 0 {
		o.Shards = defaultShards
	}
	if o.Shards < 1 {
		return o, fmt.Errorf("engine: Shards = %d, must be >= 1", o.Shards)
	}
	n := 1
	for n < o.Shards {
		n <<= 1
	}
	o.Shards = n
	if o.IngestMode == IngestDefault {
		o.IngestMode = IngestAbsorber
	}
	if o.IngestMode != IngestAbsorber {
		return o, fmt.Errorf("engine: unknown ingest mode %d", o.IngestMode)
	}
	if o.stageOps == 0 {
		o.stageOps = defaultStageOps
	}
	if o.SegmentOps < 0 {
		return o, fmt.Errorf("engine: SegmentOps = %d, must be >= 0", o.SegmentOps)
	}
	if o.ChainWords == 0 {
		o.ChainWords = o.SignatureWords
	}
	if o.ChainWords < 1 {
		return o, fmt.Errorf("engine: ChainWords = %d, must be >= 1", o.ChainWords)
	}
	if o.CheckpointInterval < 0 {
		return o, fmt.Errorf("engine: CheckpointInterval = %v, must be >= 0", o.CheckpointInterval)
	}
	if o.CheckpointSegments < 0 {
		return o, fmt.Errorf("engine: CheckpointSegments = %d, must be >= 0", o.CheckpointSegments)
	}
	if o.FS == nil {
		o.FS = oplog.OSFS
	}
	return o, nil
}

// Engine tracks the synopsis set of every defined relation.
type Engine struct {
	opts    Options // normalized
	fastFam *join.FastFamily
	skCfg   core.Config // the per-shard sketch shape; zero when NoSketch
	// chainFam is the shared §5 chain family, built lazily by the first
	// schema that declares a chain synopsis (constructing ChainWords hash
	// functions per attribute side is not free, and most engines never
	// track chains). Guarded by mu for writes; a relation holds a stable
	// reference once built.
	chainFam *join.ChainFamily

	mu   sync.RWMutex
	rels map[string]*Relation
	// epoch numbers the current log generation (durable engines). Each
	// checkpoint absorbs the logs of the previous epoch and moves every
	// relation onto epoch-tagged fresh logs; recovery replays only logs
	// at or beyond the loaded checkpoint's epoch, so a crash anywhere
	// between the checkpoint rename and the log compaction can never
	// double-apply absorbed ops. Atomic because Checkpoint bumps it
	// while readers hold mu shared.
	epoch atomic.Uint64
	// ckptMu serializes Checkpoint calls, which hold mu only shared so
	// lookups never wait for a blob's write and fsync; the background
	// checkpointer and POST /v1/checkpoint can overlap. Define, Drop,
	// Import and Merge checkpoint under mu held exclusively, which
	// already excludes a Checkpoint in flight.
	ckptMu sync.Mutex

	// fs is the durability filesystem seam (Options.FS, normalized).
	fs oplog.FS
	// ckptKick wakes the background checkpointer when a segment rolls
	// (capacity 1: concurrent rolls coalesce into one wake-up).
	ckptKick chan struct{}
	// ckpt is the background checkpointer, nil unless Open started one.
	ckpt *checkpointer

	// statMu guards the checkpoint outcome stats below (written by both
	// foreground Checkpoint calls and the background checkpointer, read
	// by DurabilityStats without the engine lock).
	statMu        sync.Mutex
	lastCkptAt    time.Time
	lastCkptBytes int
	lastCkptErr   error
	ckptCount     int64
}

// New creates an empty in-memory engine (opts.Dir is ignored here; use
// Open for a durable one).
func New(opts Options) (*Engine, error) {
	opts.Dir = ""
	return newEngine(opts)
}

func newEngine(opts Options) (*Engine, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	e := &Engine{
		opts:     opts,
		rels:     make(map[string]*Relation),
		fs:       opts.FS,
		ckptKick: make(chan struct{}, 1),
	}
	e.fastFam, err = join.NewFastFamily(opts.SignatureWords/opts.SignatureRows, opts.SignatureRows, opts.Seed)
	if err != nil {
		return nil, err
	}
	if !opts.NoSketch {
		// Disjoint seed stream: the sketch must stay statistically
		// independent of the signature under one master seed.
		e.skCfg = core.Config{S1: opts.SketchS1, S2: opts.SketchS2,
			Seed: xrand.Mix64(opts.Seed ^ 0xa5a5_e19e_5e55_0001)}
	}
	return e, nil
}

// Options returns the engine's normalized configuration.
func (e *Engine) Options() Options { return e.opts }

// ensureChainFam builds the chain family on first use. Callers hold e.mu
// exclusively (Define, checkpoint decode). The family seed is a disjoint
// derivation of the master seed, like the sketch's, so the chain signs
// stay statistically independent of the pairwise signature and sketch.
func (e *Engine) ensureChainFam() (*join.ChainFamily, error) {
	if e.chainFam != nil {
		return e.chainFam, nil
	}
	fam, err := join.NewChainFamily(e.opts.ChainWords,
		xrand.Mix64(e.opts.Seed^0xc4a1_9e55_0bad_c0de))
	if err != nil {
		return nil, err
	}
	e.chainFam = fam
	return fam, nil
}

// hhSeed derives the heavy-hitter tie-break seed from the master seed —
// a disjoint stream like the sketch's and the chains', shared by every
// node built on the same Seed so skimmed tables evict identically and
// merge across partitions.
func (e *Engine) hhSeed() uint64 {
	return xrand.Mix64(e.opts.Seed ^ 0x5c1b_b0a7_ab1e_0001)
}

// newSketch builds an empty self-join sketch of the configured shape
// (normalize validated it, so construction cannot fail).
func (e *Engine) newSketch() *core.FastTugOfWar {
	sk, err := core.NewFastTugOfWar(e.skCfg)
	must(err)
	return sk
}

// Relation is one tracked relation: its synopsis set, sharded for
// concurrent ingest, plus (in durable engines) its operation log.
type Relation struct {
	name string
	eng  *Engine
	// schema (normalized) declares the attribute set; arity and plan are
	// compiled from it. Single-attribute relations have arity 1 and a nil
	// shard chain everywhere — the pre-schema fast paths, untouched.
	schema Schema
	arity  int
	plan   chainPlan

	mask   uint64
	shards []sigShard

	log relLog // no-op in in-memory engines

	// ing is the write path (the staged runs, the sequencer and its
	// group-commit log, one absorber goroutine per shard). Shard state is
	// owned by the absorbers: every other access parks them first
	// (ingester.park).
	ing *ingester
}

// sigShard is one shard's synopsis set. Its absorber writes it; recovery
// replay and bundle merges write it while the absorbers are idle or
// parked.
type sigShard struct {
	sig    join.Signature
	sketch *core.FastTugOfWar // nil when NoSketch
	chain  *shardChain        // nil unless the schema declares chain synopses
	// hh is the shard's slice of the relation's heavy-hitter table, nil
	// unless the schema sets SkimHitters. Shards key by shardOf(value),
	// so the per-shard tables track DISJOINT value sets and the
	// relation-level table is their exact union. Updated per op, in op
	// order, by the shard's absorber; unlike the other synopses it is
	// order-sensitive, and its bit-exact recovery guarantee rests on
	// per-shard apply order equalling per-shard log order (§13).
	hh *core.SpaceSaving
	// ops counts the mutation ops this shard has applied (a batch of n
	// rows counts n). The per-relation sum is the relation's Seq — its
	// logical version. Written by the shard's absorber, the recovery
	// thread during replay, or under a park during bundle absorption.
	// Deterministic by construction: equal op sequences give equal sums,
	// checkpoints persist it, and replay re-derives the tail — so
	// recovery reconstructs it bit-exactly along with the synopses.
	ops uint64
	_   [16]byte // pad to a cache line: absorbers write adjacent shards' ops
}

// newRelation builds the in-memory half of a relation. schema must
// already be normalized.
func (e *Engine) newRelation(name string, schema Schema) (*Relation, error) {
	r := &Relation{
		name:   name,
		eng:    e,
		schema: schema,
		arity:  schema.arity(),
		plan:   schema.plan(),
		mask:   uint64(e.opts.Shards - 1),
		shards: make([]sigShard, e.opts.Shards),
	}
	var chainFam *join.ChainFamily
	if schema.hasChain() {
		var err error
		if chainFam, err = e.ensureChainFam(); err != nil {
			return nil, err
		}
	}
	for i := range r.shards {
		r.shards[i].sig = e.fastFam.NewSignature()
		if !e.opts.NoSketch {
			r.shards[i].sketch = e.newSketch()
		}
		if chainFam != nil {
			sc, err := newShardChain(chainFam, &r.plan)
			if err != nil {
				return nil, err
			}
			r.shards[i].chain = sc
		}
		if schema.SkimHitters > 0 {
			hh, err := core.NewSpaceSaving(r.skimPerShard(), e.hhSeed())
			if err != nil {
				return nil, err
			}
			r.shards[i].hh = hh
		}
	}
	r.ing = newIngester(r)
	r.log.onRoll = e.noteSegmentRoll
	return r, nil
}

// discard shuts down a relation that is being thrown away without ever
// (or no longer) being published — error paths of Define/Import and
// checkpoint decoding — so its absorber goroutines cannot leak.
func (r *Relation) discard() {
	if r != nil {
		r.ing.stop()
	}
}

// Define registers a new empty single-attribute relation. It fails if
// the name exists. In durable engines this creates the relation's
// operation log, which also serves as its existence marker across
// restarts.
func (e *Engine) Define(name string) (*Relation, error) {
	return e.DefineSchema(name, Schema{})
}

// DefineSchema registers a new empty relation with an explicit attribute
// set and chain-synopsis declarations. In durable engines a non-legacy
// schema is persisted by an immediate checkpoint (schemas travel in
// checkpoints, not the oplog), so a crash right after the define recovers
// the relation with its declared attribute set.
func (e *Engine) DefineSchema(name string, schema Schema) (*Relation, error) {
	if name == "" {
		return nil, errors.New("engine: empty relation name")
	}
	schema, err := NormalizeSchema(schema)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.rels[name]; ok {
		return nil, fmt.Errorf("engine: %w: %q", ErrAlreadyDefined, name)
	}
	r, err := e.newRelation(name, schema)
	if err != nil {
		return nil, err
	}
	if err := r.log.create(e.fs, e.opts.Dir, name, e.epoch.Load(), e.opts.SegmentOps); err != nil {
		r.discard()
		return nil, err
	}
	e.rels[name] = r
	// Skimming relations persist like non-legacy schemas even when their
	// attribute set is the legacy one: SkimHitters travels in
	// checkpoints (not the oplog), so a crash right after the define
	// must find it there or recovery would resurrect the relation
	// unskimmed.
	if e.opts.Dir != "" && (!schema.legacy() || schema.SkimHitters > 0) {
		if _, err := e.checkpointLocked(); err != nil {
			// Unwind the registration: leaving the relation defined with
			// its schema unpersisted would hand a crash-recovery exactly
			// the wrong-arity resurrection this checkpoint exists to
			// prevent, and a caller retrying the define would see a
			// spurious ErrAlreadyDefined.
			delete(e.rels, name)
			r.discard()
			_ = r.log.remove()
			return nil, fmt.Errorf("engine: checkpoint after define: %w", err)
		}
	}
	return r, nil
}

// Get returns a defined relation.
func (e *Engine) Get(name string) (*Relation, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	r, ok := e.rels[name]
	if !ok {
		return nil, UnknownRelation(name)
	}
	return r, nil
}

// Drop removes a relation. In durable engines it deletes the relation's
// log (the existence marker, so a plain drop survives restarts even when
// an older checkpoint still carries the relation) and then folds the
// drop into a fresh checkpoint — otherwise a later Define of the SAME
// name would let recovery resurrect the old counters from the stale
// checkpoint underneath the new relation's log.
func (e *Engine) Drop(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.rels[name]
	if !ok {
		return UnknownRelation(name)
	}
	delete(e.rels, name)
	r.ing.stop()
	if err := r.log.remove(); err != nil {
		return err
	}
	if e.opts.Dir != "" {
		if _, err := e.checkpointLocked(); err != nil {
			return fmt.Errorf("engine: checkpoint after drop: %w", err)
		}
	}
	return nil
}

// Names lists the defined relations in sorted order.
func (e *Engine) Names() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.rels))
	for n := range e.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Schema returns a copy of the relation's normalized schema.
func (r *Relation) Schema() Schema {
	s, _ := NormalizeSchema(r.schema) // normalize copies; r.schema is already valid
	return s
}

// Arity returns the relation's attribute count. Single-value ops
// (Insert, Delete, and their batches) are legal only at arity 1; wider
// relations ingest through the Tuple variants.
func (r *Relation) Arity() int { return r.arity }

// mustArity enforces the tuple-shape contract. Arity is part of the
// relation's declared schema; the serving layers validate it per request
// (400), so a mismatch reaching the engine is a caller bug.
func (r *Relation) mustArity(n int) {
	if r.arity != n {
		panic(fmt.Sprintf("engine: relation %q has arity %d, got a %d-value op", r.name, r.arity, n))
	}
}

// shardOf spreads values across shards; deterministic in the value so a
// shard always sees a valid substream of its values' ops.
func (r *Relation) shardOf(v uint64) uint64 { return xrand.Mix64(v) & r.mask }

// skims reports whether the relation maintains skimmed synopses.
func (r *Relation) skims() bool { return r.schema.SkimHitters > 0 }

// skimPerShard is each shard's slice of the heavy-hitter budget,
// rounded up so the budget never silently shrinks.
func (r *Relation) skimPerShard() int {
	return (r.schema.SkimHitters + len(r.shards) - 1) / len(r.shards)
}

// skimCap is the relation-level heavy-hitter table capacity — the exact
// union of the per-shard tables, and the capacity checkpoints and
// bundles carry. Nodes merging skimmed bundles must agree on it, which
// means agreeing on (SkimHitters, Shards).
func (r *Relation) skimCap() int { return r.skimPerShard() * len(r.shards) }

// newRelHH builds an empty relation-level heavy-hitter table.
func (r *Relation) newRelHH() *core.SpaceSaving {
	hh, err := core.NewSpaceSaving(r.skimCap(), r.eng.hhSeed())
	if err != nil {
		// The shard tables were built from the same config.
		panic(fmt.Sprintf("engine: hh snapshot: %v", err))
	}
	return hh
}

// Insert adds a tuple with the given joining-attribute value. The op is
// staged, logged by the relation's sequencer (durable engines) and
// applied asynchronously by the shard's absorber. Log write errors
// are sticky and surfaced by Err, Sync, Checkpoint, Drain, and the next
// erroring caller-side op.
func (r *Relation) Insert(v uint64) {
	r.mustArity(1)
	r.ing.stage(false, v)
}

// InsertTuple adds a tuple of the relation's full attribute set, in
// schema order. The primary attribute (vals[0]) feeds the pairwise
// signature and the self-join sketch; every declared chain synopsis sees
// the attributes it is bound to. Arity-1 relations may use Insert and
// InsertTuple interchangeably.
func (r *Relation) InsertTuple(vals ...uint64) {
	r.mustArity(len(vals))
	r.ing.stage(false, vals...)
}

// DeleteTuple removes a tuple previously added with InsertTuple. Exact
// by linearity; validity of the op sequence is the caller's contract.
func (r *Relation) DeleteTuple(vals ...uint64) error {
	r.mustArity(len(vals))
	r.ing.stage(true, vals...)
	return r.Err()
}

// Delete removes a tuple with the given joining-attribute value. Exact by
// linearity; validity of the op sequence is the caller's contract. The
// op is applied asynchronously, so the returned error reflects the
// relation's sticky state (prior oplog failures), not this specific op.
func (r *Relation) Delete(v uint64) error {
	r.mustArity(1)
	r.ing.stage(true, v)
	return r.Err()
}

// IngestRun is the one batch entry: vals holds rows of the relation's
// full attribute set, row-major (each row in schema order), inserted, or
// deleted when del is set. It goes after the single ops staged before it
// and is logged as one record in one segment, so a torn write keeps all
// of it or none; only a batch of more than oplog.MaxRecordVals values
// becomes several records. It is applied asynchronously. vals is copied,
// so the caller may reuse it immediately. Like Delete, it reports the
// relation's sticky log error. A length that is not a multiple of the
// arity is a caller bug and panics.
func (r *Relation) IngestRun(del bool, vals []uint64) error {
	if len(vals)%r.arity != 0 {
		panic(fmt.Sprintf("engine: relation %q has arity %d, got a run of %d values", r.name, r.arity, len(vals)))
	}
	if len(vals) > 0 {
		r.ing.batch(del, vals)
	}
	return r.Err()
}

// InsertBatch adds every value in vs as one batch (IngestRun).
func (r *Relation) InsertBatch(vs []uint64) {
	if len(vs) > 0 {
		r.mustArity(1)
		_ = r.IngestRun(false, vs)
	}
}

// DeleteBatch removes every value in vs.
func (r *Relation) DeleteBatch(vs []uint64) error {
	if len(vs) > 0 {
		r.mustArity(1)
	}
	return r.IngestRun(true, vs)
}

// InsertTupleBatch adds every row (each the relation's full attribute
// set, in schema order) as one batch (IngestRun). Rows are copied, so the
// caller may reuse the backing arrays immediately.
func (r *Relation) InsertTupleBatch(rows [][]uint64) {
	_ = r.IngestRun(false, r.flatten(rows))
}

// DeleteTupleBatch removes every row in rows.
func (r *Relation) DeleteTupleBatch(rows [][]uint64) error {
	return r.IngestRun(true, r.flatten(rows))
}

// flatten checks each row's arity and lays the rows out row-major.
func (r *Relation) flatten(rows [][]uint64) []uint64 {
	vals := make([]uint64, 0, len(rows)*r.arity)
	for _, row := range rows {
		r.mustArity(len(row))
		vals = append(vals, row...)
	}
	return vals
}

// Drain is the read-your-writes barrier: it blocks until every op staged
// before the call has been logged (its record pushed to the OS) and
// applied to the synopses, then reports the relation's sticky error.
// Queries and Checkpoint drain implicitly; call Drain directly when
// switching from loading to reading, or to surface asynchronous log
// errors promptly.
func (r *Relation) Drain() error {
	r.ing.drain()
	return r.Err()
}

// Err returns the relation's sticky log error, if any: a failed append
// means ops since that point are NOT durable even though the in-memory
// synopses kept tracking them. The error may have been detected
// asynchronously by the relation's sequencer; it is still sticky and
// visible here without a drain.
func (r *Relation) Err() error { return r.log.err() }

// Len returns the relation's current tuple count (draining staged ops
// first).
func (r *Relation) Len() int64 {
	b, _ := r.ing.cut(false, false)
	return b.Rows
}

// DrainLen is Drain and Len in ONE pipeline sweep: everything staged
// before the call is applied and handed to the OS-owned log buffer (the
// sequencer pushes its pending records at every barrier), the returned
// count includes it, and the sticky error (if any) comes back with it.
// Serving layers answering an ingest request want exactly this pair.
func (r *Relation) DrainLen() (int64, error) {
	return r.Len(), r.Err()
}

// Cut reads the relation as one consistent cut: every synopsis, Rows and
// Seq taken at a single barrier after draining staged ops, so they all
// describe the same op prefix (Epoch is the engine's log generation,
// read first, as StatRelation does). ExportRelation serializes exactly
// this bundle.
func (r *Relation) Cut() *RelationBundle {
	epoch := r.eng.Epoch()
	b, _ := r.ing.cut(true, false)
	b.Epoch = epoch
	return &b
}

// newEmptyChain builds an empty chain set of the relation's layout. The
// relation's shards already hold chain sets, so the family exists.
func (r *Relation) newEmptyChain() *shardChain {
	sc, err := newShardChain(r.eng.chainFam, &r.plan)
	must(err)
	return sc
}

// SelfJoinEstimate returns the relation's estimated self-join size (see
// SelfJoinEstimateDetail).
func (r *Relation) SelfJoinEstimate() float64 {
	est, _ := r.SelfJoinEstimateDetail()
	return est
}

// SelfJoinEstimateDetail returns the self-join estimate of one cut
// together with the name of the estimator that answered (see
// RelationBundle.SelfJoinEstimateDetail). Staged ops are drained first,
// so the estimate covers the caller's own writes.
func (r *Relation) SelfJoinEstimateDetail() (float64, string) {
	b, _ := r.ing.cut(true, false)
	return b.SelfJoinEstimateDetail()
}

// JoinEstimate is the planner-facing answer for one pair of relations.
type JoinEstimate struct {
	Estimate float64 `json:"estimate"` // unbiased signature estimate of |F ⋈ G|
	Sigma    float64 `json:"sigma"`    // Lemma 4.4 one-standard-deviation bound (from SJF, SJG)
	Fact11   float64 `json:"fact11"`   // Fact 1.1 upper bound (SJ(F)+SJ(G))/2, from estimates
	// SJF and SJG are each side's own self-join answer — the one
	// SelfJoinEstimateDetail gives for that relation alone, skimmed for a
	// skimming relation whatever the other side does.
	SJF float64 `json:"sjf"`
	SJG float64 `json:"sjg"`
	// Estimator names the estimator that produced Estimate: "skimmed"
	// (both sides carry heavy-hitter tables: exact hitter×hitter +
	// sketched cross/tail, DESIGN.md §13) or "sketch" (the plain
	// signature estimate). Sigma is the plain Lemma 4.4 bound either way
	// — for skimmed answers it is conservative, since the skimmed
	// variance is driven by the residual self-joins rather than the full
	// ones.
	Estimator string `json:"estimator"`
}

// EstimateJoinBundles is the one join answer: every node-local,
// cross-node and coordinator join estimate comes from two cuts through
// here. It answers with the skimmed decomposition when both bundles
// carry heavy-hitter tables (the decomposition needs both) and with the
// plain signature estimate otherwise. σ = √(2·SJF·SJG/k) is Lemma 4.4's
// bound, which both schemes carry at equal memory k.
func EstimateJoinBundles(bf, bg *RelationBundle) (JoinEstimate, error) {
	var est float64
	var err error
	estimator := "sketch"
	if bf.HH != nil && bg.HH != nil {
		est, err = join.SkimmedJoin(bf.Sig, bg.Sig, bf.HH.SkimFrequencies(), bg.HH.SkimFrequencies())
		estimator = "skimmed"
	} else {
		est, err = join.EstimateJoin(bf.Sig, bg.Sig)
	}
	if err != nil {
		return JoinEstimate{}, fmt.Errorf("%w: %v", ErrIncompatible, err)
	}
	sjF, sjG := bf.SelfJoinEstimate(), bg.SelfJoinEstimate()
	return JoinEstimate{
		Estimate:  est,
		Sigma:     join.ErrorBound(sjF, sjG, bf.Sig.MemoryWords()),
		Fact11:    exact.JoinUpperBound(int64(sjF), int64(sjG)),
		SJF:       sjF,
		SJG:       sjG,
		Estimator: estimator,
	}, nil
}

// EstimateJoin estimates the join size of two defined relations, with the
// paper's error bounds attached: one cut per relation, answered by
// EstimateJoinBundles.
func (e *Engine) EstimateJoin(f, g string) (JoinEstimate, error) {
	rf, err := e.Get(f)
	if err != nil {
		return JoinEstimate{}, err
	}
	rg, err := e.Get(g)
	if err != nil {
		return JoinEstimate{}, err
	}
	bf, _ := rf.ing.cut(true, false)
	bg, _ := rg.ing.cut(true, false)
	return EstimateJoinBundles(&bf, &bg)
}

// ChainJoinEstimate is the planner-facing answer for a three-way chain
// join F ⋈a G ⋈b H (§5).
type ChainJoinEstimate struct {
	Estimate float64 `json:"estimate"` // unbiased chain estimate of |F ⋈a G ⋈b H|
	Sigma    float64 `json:"sigma"`    // variance-envelope one-σ bound √(9·SJF·SJG·SJH/k)
	Upper    float64 `json:"upper"`    // Cauchy–Schwarz upper bound √(SJF·SJG·SJH)
	// The self-join estimates behind the bounds, from the chain
	// signatures' own counters (SJG is the middle's PAIR self-join).
	SJF float64 `json:"sjf"`
	SJG float64 `json:"sjg"`
	SJH float64 `json:"sjh"`
	K   int     `json:"k"` // chain signature words
}

// EstimateChainJoin estimates the three-way chain join size
// |f ⋈attrA g ⋈attrB h|: f must declare an A-side chain end signature on
// attrA, g a middle signature on (attrA, attrB), and h a B-side end
// signature on attrB. The answer carries the §5 variance-envelope σ and
// the Cauchy–Schwarz upper bound, both computed from the chain
// signatures' own self-join estimates — so a coordinator that merges
// shipped signatures reproduces them bit for bit (EstimateChainBundles
// answers both).
func (e *Engine) EstimateChainJoin(f, attrA, g, attrB, h string) (ChainJoinEstimate, error) {
	var legs [3]RelationBundle
	for i, name := range [3]string{f, g, h} {
		r, err := e.Get(name)
		if err != nil {
			return ChainJoinEstimate{}, err
		}
		legs[i], _ = r.ing.cut(true, false)
	}
	return EstimateChainBundles(&legs[0], attrA, &legs[1], attrB, &legs[2])
}

// MarshalBinary serializes the engine — configuration plus one cut of
// every relation — as one blob in the shared framing. It is the
// checkpoint format.
func (e *Engine) MarshalBinary() ([]byte, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.marshalCuts(e.epoch.Load(), e.cutAll())
}

// engineFlags payload bits.
const flagNoSketch uint32 = 1 << 0

// engineBlobVersion is the checkpoint format version: version 2 added
// ChainWords and a per-relation schema + chain section; version 3 added
// the per-relation op-sequence counter (Seq). Version-1 and version-2
// blobs still load (their relations recover with Seq counting only
// replayed ops — the one upgrade where a stamp restarts low; it is
// monotone again from there).
const engineBlobVersion = 3

// engineBlobVersionSkim is version 4: a per-relation skim section
// (SkimHitters + heavy-hitter table, between the schema and chain
// sections). An engine WRITES version 4 only when at least one relation
// skims — engines without skimming keep producing byte-identical
// version-3 checkpoints, the compatibility contract of DESIGN.md §13.
const engineBlobVersionSkim = 4

// writeVersion picks the checkpoint version for the current relation
// set. Caller holds e.mu (any mode).
func (e *Engine) writeVersion() uint8 {
	for _, r := range e.rels {
		if r.skims() {
			return engineBlobVersionSkim
		}
	}
	return engineBlobVersion
}

// cutAll takes one cut of every relation. Caller holds e.mu (any mode)
// or, during recovery, owns the unpublished engine.
func (e *Engine) cutAll() map[string]RelationBundle {
	cuts := make(map[string]RelationBundle, len(e.rels))
	for n, r := range e.rels {
		cuts[n], _ = r.ing.cut(true, false)
	}
	return cuts
}

// marshalCuts serializes the engine from one cut per relation: the live
// shard state is never touched, so ingest keeps mutating it while the
// blob is built. Caller holds e.mu (any mode).
func (e *Engine) marshalCuts(epoch uint64, cuts map[string]RelationBundle) ([]byte, error) {
	version := e.writeVersion()
	b, names := e.marshalHeader(version, epoch)
	for _, n := range names {
		c := cuts[n]
		if err := buildRelationBlob(b, version, n, e.rels[n].schema, &c); err != nil {
			return nil, err
		}
	}
	return b.Seal(), nil
}

// marshalHeader builds the checkpoint blob header (engine configuration
// plus relation count) and returns the builder with the sorted relation
// names the per-relation sections must follow.
func (e *Engine) marshalHeader(version uint8, epoch uint64) (*blob.Builder, []string) {
	b := blob.NewBuilder(blob.MagicEngine, version, 1024)
	b.U64(uint64(e.opts.SignatureWords))
	b.U64(e.opts.Seed)
	b.U32(0) // the signature scheme word: 0 is the fast signature, 1 the retired flat one
	b.U64(uint64(e.opts.SignatureRows))
	b.U64(uint64(e.opts.SketchS1))
	b.U64(uint64(e.opts.SketchS2))
	flags := uint32(0)
	if e.opts.NoSketch {
		flags |= flagNoSketch
	}
	b.U32(flags)
	b.U64(uint64(e.opts.ChainWords))
	b.U64(epoch)
	names := make([]string, 0, len(e.rels))
	for n := range e.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	b.U32(uint32(len(names)))
	return b, names
}

// buildRelationBlob appends one relation's checkpoint section from one
// cut of it, whose Seq rides the same cut as its synopses.
func buildRelationBlob(b *blob.Builder, version uint8, name string, schema Schema, c *RelationBundle) error {
	sigBlob, err := c.Sig.MarshalBinary()
	if err != nil {
		return err
	}
	b.String(name)
	b.Bytes(sigBlob)
	if c.Sketch == nil {
		b.U32(0)
	} else {
		skBlob, err := c.Sketch.MarshalBinary()
		if err != nil {
			return err
		}
		b.U32(1)
		b.Bytes(skBlob)
	}
	buildSchema(b, schema)
	if version >= engineBlobVersionSkim {
		// The skim section sits between schema and chain so decoding
		// knows the full relation shape before building it.
		if c.HH == nil {
			b.U32(0)
		} else {
			hhBlob, err := c.HH.MarshalBinary()
			if err != nil {
				return err
			}
			b.U32(1)
			b.U64(uint64(schema.SkimHitters))
			b.Bytes(hhBlob)
		}
	}
	var chain *shardChain
	if c.Chain != nil {
		chain = &shardChain{ends: c.Chain.Ends, mids: c.Chain.Mids}
	}
	if err := buildChain(b, chain); err != nil {
		return err
	}
	b.U64(c.Seq)
	return nil
}

// buildChain appends a chain section (possibly empty) to a payload.
func buildChain(b *blob.Builder, chain *shardChain) error {
	if chain == nil {
		b.U32(0)
		b.U32(0)
		return nil
	}
	b.U32(uint32(len(chain.ends)))
	for _, s := range chain.ends {
		blobBytes, err := s.MarshalBinary()
		if err != nil {
			return err
		}
		b.Bytes(blobBytes)
	}
	b.U32(uint32(len(chain.mids)))
	for _, s := range chain.mids {
		blobBytes, err := s.MarshalBinary()
		if err != nil {
			return err
		}
		b.Bytes(blobBytes)
	}
	return nil
}

// readChainBlobs reads a chain section's raw signature blobs.
func readChainBlobs(c *blob.Cursor) (ends, mids [][]byte, err error) {
	nEnds := c.U32()
	if c.Err() == nil && nEnds > 2*maxArity {
		return nil, nil, fmt.Errorf("engine: chain section: %d end signatures", nEnds)
	}
	for i := uint32(0); i < nEnds && c.Err() == nil; i++ {
		ends = append(ends, c.Bytes())
	}
	nMids := c.U32()
	if c.Err() == nil && nMids > maxArity*maxArity {
		return nil, nil, fmt.Errorf("engine: chain section: %d middle signatures", nMids)
	}
	for i := uint32(0); i < nMids && c.Err() == nil; i++ {
		mids = append(mids, c.Bytes())
	}
	if c.Err() != nil {
		return nil, nil, c.Err()
	}
	return ends, mids, nil
}

// UnmarshalBinary restores an engine serialized by MarshalBinary. The
// restored engine is in-memory; Open layers durability and log replay on
// top of this. Absorber machinery of any relations the engine previously
// held is shut down before they are replaced.
func (e *Engine) UnmarshalBinary(data []byte) error {
	fresh, err := unmarshalEngine(data, Options{})
	if err != nil {
		return err
	}
	for _, r := range e.rels {
		r.ing.stop()
	}
	e.opts, e.fastFam, e.skCfg, e.rels, e.fs =
		fresh.opts, fresh.fastFam, fresh.skCfg, fresh.rels, fresh.fs
	e.epoch.Store(fresh.epoch.Load())
	return nil
}

// unmarshalEngine decodes a checkpoint blob (version 1 — pre-schema,
// single-attribute — or version 2 with per-relation schema and chain
// sections). Runtime-only knobs (Shards, Dir) are taken from runtime
// rather than the blob. Each relation section decodes into a bundle and
// folds in through absorbBundle, the path bundle imports take.
func unmarshalEngine(data []byte, runtime Options) (*Engine, error) {
	version, payload, err := blob.Open(blob.MagicEngine, engineBlobVersionSkim, data)
	if err != nil {
		return nil, fmt.Errorf("engine: checkpoint blob: %w", err)
	}
	c := blob.NewCursor(payload)
	opts := Options{SignatureWords: c.Int(), Seed: c.U64()}
	scheme := c.U32()
	opts.SignatureRows, opts.SketchS1, opts.SketchS2 = c.Int(), c.Int(), c.Int()
	flags := c.U32()
	opts.NoSketch = flags&flagNoSketch != 0
	if version >= 2 {
		opts.ChainWords = c.Int()
	} else {
		// Pre-chain checkpoints carry no ChainWords; honor the runtime
		// request instead of silently defaulting to SignatureWords (the
		// blob predates chains, so no chain state can conflict).
		opts.ChainWords = runtime.ChainWords
	}
	epoch := c.U64()
	count := c.U32()
	if c.Err() != nil {
		return nil, fmt.Errorf("engine: checkpoint blob: %w", c.Err())
	}
	if scheme != 0 {
		return nil, fmt.Errorf("engine: checkpoint blob: signature scheme %d: the flat scheme (1) is retired, engines keep only the fast signature (0)", scheme)
	}
	opts.Shards = runtime.Shards
	opts.Dir = runtime.Dir
	opts.stageOps = runtime.stageOps
	opts.SegmentOps = runtime.SegmentOps
	opts.CheckpointInterval = runtime.CheckpointInterval
	opts.CheckpointSegments = runtime.CheckpointSegments
	opts.FS = runtime.FS
	fresh, err := newEngine(opts)
	if err != nil {
		return nil, err
	}
	fresh.epoch.Store(epoch)
	// Any error below throws the half-built engine away; stop the
	// absorber pipelines of every relation built so far (fuzzed corrupt
	// checkpoints hit these paths thousands of times per run).
	ok := false
	defer func() {
		if !ok {
			for _, r := range fresh.rels {
				r.discard()
			}
		}
	}()
	for i := uint32(0); i < count; i++ {
		name, schema, b, err := readRelationSection(c, version)
		if err != nil {
			return nil, fmt.Errorf("engine: checkpoint blob: relation %q: %w", name, err)
		}
		if name == "" {
			return nil, errors.New("engine: checkpoint blob: empty relation name")
		}
		if _, ok := fresh.rels[name]; ok {
			return nil, fmt.Errorf("engine: checkpoint blob: relation %q duplicated", name)
		}
		r, err := fresh.newRelation(name, schema)
		if err != nil {
			return nil, err
		}
		// Registered before the fold so the cleanup defer owns it.
		fresh.rels[name] = r
		if err := r.absorbBundle(b); err != nil {
			return nil, fmt.Errorf("engine: relation %q: %w", name, err)
		}
	}
	if err := c.Close(); err != nil {
		return nil, fmt.Errorf("engine: checkpoint blob: %w", err)
	}
	ok = true
	return fresh, nil
}

// readRelationSection decodes one relation's checkpoint section into its
// name, its schema (SkimHitters included) and a bundle of its synopses
// and Seq. The table of a skimmed relation is the relation-level one —
// the exact union of the shard tables — so the fold's scatter restores
// each shard's table bit-exactly at an unchanged shard count, and still
// lands every entry on its owning shard at another.
func readRelationSection(c *blob.Cursor, version uint8) (string, Schema, *RelationBundle, error) {
	name := c.String()
	schema := Schema{Attrs: []string{legacyAttr}}
	sig, sketch, err := readSigSketch(c)
	if err != nil {
		return name, schema, nil, err
	}
	b := &RelationBundle{Sig: sig, Sketch: sketch}
	if version < 2 {
		return name, schema, b, nil
	}
	if schema, err = readSchema(c); err != nil {
		return name, schema, nil, err
	}
	if version >= engineBlobVersionSkim {
		switch skims := c.U32(); skims {
		case 0:
		case 1:
			hitters, hhBlob := c.U64(), c.Bytes()
			if c.Err() != nil {
				return name, schema, nil, c.Err()
			}
			if b.HH, err = decodeHH(hitters, hhBlob); err != nil {
				return name, schema, nil, err
			}
			b.SkimHitters = int(hitters)
			schema.SkimHitters = b.SkimHitters
		default:
			if c.Err() == nil {
				return name, schema, nil, fmt.Errorf("skim flag %d", skims)
			}
		}
	}
	endBlobs, midBlobs, err := readChainBlobs(c)
	if err != nil {
		return name, schema, nil, err
	}
	if !schema.legacy() {
		b.Chain = &ChainBundle{}
		if err := b.Chain.decode(schema, endBlobs, midBlobs); err != nil {
			return name, schema, nil, err
		}
	} else if len(endBlobs)+len(midBlobs) > 0 {
		return name, schema, nil, fmt.Errorf("chain section has %d end + %d middle signatures, the legacy schema declares none",
			len(endBlobs), len(midBlobs))
	}
	if version >= 3 {
		b.Seq = c.U64()
	}
	return name, schema, b, c.Err()
}

// scatterHH folds a relation-level hitter table into the per-shard
// tables, splitting by the same value hash shardOf routes with. The
// caller owns the shard state (absorbBundle parks the absorbers).
func (r *Relation) scatterHH(hh *core.SpaceSaving) {
	groups := make([][]core.Hitter, len(r.shards))
	for _, h := range hh.Items() {
		i := r.shardOf(h.Value)
		groups[i] = append(groups[i], h)
	}
	for i, g := range groups {
		r.shards[i].hh.MergeItems(g)
	}
}
