package wire

import "amstrack/internal/engine"

// Sink is the destination a wire server stages batches into. The amsd
// daemon plugs the engine in directly (EngineSink); the ingest-router
// daemon plugs its routing core in, so upstream clients speak the exact
// same protocol to a router that they would to a single node. The
// server's ACK contract is defined in terms of this interface: an ACK is
// sent only after Apply has accepted the batch AND Drain has returned
// nil for every relation the acked window touched — whatever "durable"
// means for the sink (OS-owned oplog records for an engine, downstream
// node ACKs for a router), an acked batch has reached it.
type Sink interface {
	// IngestMode names the write path for the WELCOME frame ("absorber"
	// for an engine, or a sink-specific label such as "routed").
	IngestMode() string
	// Relation resolves a relation by name. The server caches the result
	// per connection, so implementations may return a stateful
	// per-stream handle; returned values must be comparable (the ack
	// coalescer dedups touched relations by equality).
	Relation(name string) (SinkRelation, error)
}

// SinkRelation is one relation's staging surface within a Sink.
type SinkRelation interface {
	Name() string
	Arity() int
	// Apply stages one batch. vals is the server's decode scratch,
	// row-major (rows×arity), reused for the next frame: an
	// implementation that retains the values past the call must copy
	// them. A non-nil error is terminal for the stream.
	Apply(del bool, arity int, vals []uint64) error
	// Drain is the ack barrier: after it returns nil, every batch
	// Apply accepted before the call is durable in the sink's terms.
	Drain() error
}

// EngineSink adapts an engine to the Sink interface — the classic amsd
// wiring: each frame goes to Relation.IngestRun as one batch, which the
// relation's sequencer logs whole before its absorbers apply it, and
// Relation.Drain is the barrier.
func EngineSink(eng *engine.Engine) Sink { return engineSink{eng} }

type engineSink struct{ eng *engine.Engine }

func (s engineSink) IngestMode() string { return s.eng.Options().IngestMode.String() }

func (s engineSink) Relation(name string) (SinkRelation, error) {
	rel, err := s.eng.Get(name)
	if err != nil {
		return nil, err
	}
	return engineRel{rel}, nil
}

// engineRel caches the relation handle per connection.
type engineRel struct{ rel *engine.Relation }

func (r engineRel) Name() string { return r.rel.Name() }
func (r engineRel) Arity() int   { return r.rel.Arity() }

// Apply hands the frame's rows over as one run, at every arity. The
// error is the relation's sticky durability error, if one is already
// set; a failure the batch's own group commit hits surfaces at the
// drain. Either way it goes back as an ERROR frame naming the relation,
// matching HTTP ingest.
func (r engineRel) Apply(del bool, _ int, vals []uint64) error {
	return r.rel.IngestRun(del, vals)
}

func (r engineRel) Drain() error { return r.rel.Drain() }
