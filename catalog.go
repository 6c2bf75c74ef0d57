package amstrack

import (
	"amstrack/internal/core"
	"amstrack/internal/engine"
)

// Engine is the synopsis engine — the paper's §4–§5 deployment model
// grown into a service core: named relations, each carrying a fast join
// signature and a Fast-AMS self-join sketch behind sharded ingest, with
// optional oplog-backed durability (checkpoint + log replay recovery).
// The engine keeps only the fast signature; the paper's flat one (§4.3)
// is JoinSignature, for direct use and the experiments. Safe for
// concurrent use.
type Engine = engine.Engine

// EngineOptions configures an Engine. The zero value of every field
// except SignatureWords picks a sensible default; see engine.Options.
type EngineOptions = engine.Options

// IngestMode names an Engine's write path (see engine.IngestMode). There
// is one: the lock-free staging/absorber pipeline, with group-committed
// oplog appends; queries drain staged ops first, so reads see the
// caller's own writes. The field is kept for source compatibility.
type IngestMode = engine.IngestMode

// The accepted ingest modes: IngestDefault (the zero value) and
// IngestAbsorber both select the absorber pipeline.
const (
	IngestDefault  = engine.IngestDefault
	IngestAbsorber = engine.IngestAbsorber
)

// NewEngine creates an in-memory engine.
func NewEngine(opts EngineOptions) (*Engine, error) { return engine.New(opts) }

// OpenEngine creates or recovers a durable engine rooted at opts.Dir:
// checkpoint load plus per-relation oplog replay, including torn-tail
// truncation after a crash mid-append.
func OpenEngine(opts EngineOptions) (*Engine, error) { return engine.Open(opts) }

// Catalog is the former name of the synopsis engine, kept as a thin
// compatibility alias: one signature per relation, any pair estimable at
// planning time, the whole state serializable as one blob.
type Catalog = engine.Engine

// CatalogOptions configures a Catalog; SignatureWords and Seed behave as
// they always did, the added fields default to the engine's standard
// synopsis set.
type CatalogOptions = engine.Options

// Relation is one tracked relation inside an Engine (or Catalog).
type Relation = engine.Relation

// CatalogJoinEstimate is the planner-facing join estimate with the
// paper's error bounds attached (Lemma 4.4 σ and the Fact 1.1 upper
// bound).
type CatalogJoinEstimate = engine.JoinEstimate

// NewCatalog creates an empty in-memory catalog with opts.SignatureWords
// words of signature per relation.
func NewCatalog(opts CatalogOptions) (*Catalog, error) { return engine.New(opts) }

// ShardedTugOfWar ingests updates concurrently from many goroutines while
// remaining exactly equal to the single-stream sketch (linearity of the
// tug-of-war counters). Use it for parallel bulk loads; Snapshot yields a
// plain TugOfWar for serialization or merging. It and
// ShardedFastTugOfWar are one generic wrapper over their sketch types.
type ShardedTugOfWar = core.ShardedTugOfWar

// NewShardedTugOfWar builds a concurrent sketch with the given shard count
// (0 means GOMAXPROCS; rounded up to a power of two).
func NewShardedTugOfWar(cfg Config, shards int) (*ShardedTugOfWar, error) {
	return core.NewShardedTugOfWar(cfg, shards)
}

// ShardedFastTugOfWar is the concurrent wrapper around FastTugOfWar: the
// same linearity-based sharding as ShardedTugOfWar, with O(S2) per-update
// work inside each shard lock — the construction for parallel bulk ingest
// at high accuracy (large S1).
type ShardedFastTugOfWar = core.ShardedFastTugOfWar

// NewShardedFastTugOfWar builds a concurrent fast sketch with the given
// shard count (0 means GOMAXPROCS; rounded up to a power of two).
func NewShardedFastTugOfWar(cfg Config, shards int) (*ShardedFastTugOfWar, error) {
	return core.NewShardedFastTugOfWar(cfg, shards)
}
