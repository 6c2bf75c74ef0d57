package router

import (
	"errors"
	"fmt"

	"amstrack/internal/amsd"
	"amstrack/internal/engine"
	"amstrack/internal/wire"
)

// Sink adapts the router to wire.Sink, so cmd/amsrouter serves the
// byte-identical amswire protocol upstream that a single amsd node
// does: loaders stream BATCH frames at the router, the router re-frames
// them downstream per the ring, and an upstream ACK is issued only
// after every downstream node has ACKed its share (wire.Server acks
// after Drain, and routerRel.Drain is the router's Flush barrier) — the
// ack ladder composes, so "acked by the router" still means "durable on
// an amsd node".
func (r *Router) Sink() wire.Sink { return routerSink{r} }

// routerSink is the router as both upstream surfaces see it: the
// wire.Sink amswire stages into, and the amsd.Backend amsd's relation
// and ingest handlers serve from. Every failure to reach a member is
// amsd.Upstream, so the handlers answer it 502 where a node has no
// answer of its own.
type routerSink struct{ r *Router }

func (s routerSink) IngestMode() string { return "routed" }

func (s routerSink) Relation(name string) (wire.SinkRelation, error) {
	rs, err := s.r.Relation(name)
	if err != nil {
		return nil, amsd.Upstream(err)
	}
	return rs, nil
}

// Names lists the relations of the first live member that answers.
func (s routerSink) Names() ([]string, error) {
	r := s.r
	var lastErr error = errors.New("no live nodes")
	for _, m := range r.ring.Members() {
		r.mu.Lock()
		alive := r.aliveLocked(m)
		r.mu.Unlock()
		if !alive {
			continue
		}
		names, err := r.opts.Fetcher.ListRelations(m)
		if err == nil {
			return names, nil
		}
		lastErr = err
	}
	return nil, amsd.Upstream(lastErr)
}

func (s routerSink) Define(name string, sc engine.Schema) error {
	if _, err := s.r.adoptRelation(name, &sc); err != nil {
		return amsd.Upstream(err)
	}
	return nil
}

func (s routerSink) Schema(name string) (engine.Schema, error) {
	rs, err := s.r.Relation(name)
	if err != nil {
		return engine.Schema{}, amsd.Upstream(err)
	}
	return rs.schema, nil
}

// DrainLen flushes the relation and sums its members' row counts.
func (s routerSink) DrainLen(name string) (int64, error) {
	rs, err := s.r.Relation(name)
	if err == nil {
		err = s.r.Flush(name)
	}
	if err != nil {
		return 0, err
	}
	return s.r.fleetLen(rs), nil
}

// fleetLen sums the relation's row count across members — exact under
// linearity when every stat answers; -1 when one does not.
func (r *Router) fleetLen(rs *relState) int64 {
	r.mu.Lock()
	members := make([]string, 0, len(rs.accts))
	for m := range rs.accts {
		members = append(members, m)
	}
	r.mu.Unlock()
	var total int64
	for _, m := range members {
		st, err := r.once.FetchStat(m, rs.name)
		if err != nil {
			return -1
		}
		total += st.Rows
	}
	return total
}

// relState implements wire.SinkRelation directly: it is already the
// per-relation handle the server wants to cache, and it is a pointer
// (comparable) as the ack coalescer requires.

func (rs *relState) Name() string { return rs.name }
func (rs *relState) Arity() int   { return rs.arity }

func (rs *relState) Apply(del bool, arity int, vals []uint64) error {
	if arity != rs.arity {
		return fmt.Errorf("relation %q has arity %d, batch has %d", rs.name, rs.arity, arity)
	}
	return rs.r.route(rs, del, vals)
}

func (rs *relState) Drain() error { return rs.r.Flush(rs.name) }
