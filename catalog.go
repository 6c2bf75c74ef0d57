package amstrack

import "amstrack/internal/engine"

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
// is one: each relation's sequencer group-commits every batch to the
// oplog whole, in arrival order, then hands each shard's lock-free
// absorber its rows; queries drain staged ops first, so reads see the
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

// Relation is one tracked relation inside an Engine.
type Relation = engine.Relation

// JoinEstimate is the planner-facing join estimate with the paper's
// error bounds attached (Lemma 4.4 σ and the Fact 1.1 upper bound).
type JoinEstimate = engine.JoinEstimate
