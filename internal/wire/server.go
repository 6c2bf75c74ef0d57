package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"amstrack/internal/engine"
)

// Server speaks amswire on a listener and feeds one Sink — an engine in
// the amsd daemon, the routing core in the router daemon. Each
// accepted connection runs two goroutines: a reader that decodes frames
// and stages batches into the sink (for an engine, Relation.IngestRun —
// one shard split and one queue send per batch, no JSON), and an acker
// that owns the connection's write side.
// The acker coalesces: it drains every relation the pending batches
// touched ONCE, then acks the highest staged sequence number, so the
// drain barrier (apply + hand oplog records to the OS) amortizes over
// however many batches arrived while the previous drain ran. Under a
// saturating client that is the whole pipeline win; under a trickling
// client every batch is acked individually, matching HTTP semantics.
//
// Close stops accepting, sends GOODBYE on every open stream, and waits
// for the per-connection goroutines — after it returns no wire traffic
// can reach the engine, which is what lets the daemon's final-checkpoint
// path (PR 6) extend to open streams.
type Server struct {
	sink Sink

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*srvConn]struct{}
	closed bool
	wg     sync.WaitGroup

	// Monotonic counters for /healthz.
	totalConns atomic.Int64
	openConns  atomic.Int64
	batches    atomic.Int64
	rows       atomic.Int64
	flushes    atomic.Int64
	frameErrs  atomic.Int64
}

// Stats is a point-in-time snapshot of the wire listener's counters.
type Stats struct {
	Conns      int64 // currently open streams
	TotalConns int64 // streams accepted since startup
	Batches    int64 // batch frames staged
	Rows       int64 // rows across those batches
	Flushes    int64 // explicit FLUSH barriers served
	Errors     int64 // connections torn down by protocol or engine errors
}

// NewServer builds a wire server over eng.
func NewServer(eng *engine.Engine) *Server { return NewServerSink(EngineSink(eng)) }

// NewServerSink builds a wire server over an arbitrary Sink.
func NewServerSink(sink Sink) *Server {
	return &Server{sink: sink, conns: map[*srvConn]struct{}{}}
}

// Stats returns the current counter snapshot.
func (s *Server) Stats() Stats {
	return Stats{
		Conns:      s.openConns.Load(),
		TotalConns: s.totalConns.Load(),
		Batches:    s.batches.Load(),
		Rows:       s.rows.Load(),
		Flushes:    s.flushes.Load(),
		Errors:     s.frameErrs.Load(),
	}
}

// ErrServerClosed is returned by Serve after Close, mirroring
// http.ErrServerClosed so callers can tell shutdown from failure.
var ErrServerClosed = errors.New("wire: server closed")

// recvBuf bounds each stream's kernel receive buffer. A pipelining
// client can burst a full window of batch frames while the reader
// goroutine is descheduled; with buffer autotuning the kernel grows the
// queue, hits its memory allowance, and starts collapsing and PRUNING
// delivered segments — which the client then retransmits after a
// ~200 ms RTO, collapsing throughput ~50x on a loaded box. A fixed
// bound keeps the backpressure in TCP flow control (zero-window, reopens
// the instant the reader catches up) instead of in loss recovery.
const recvBuf = 256 << 10

// handshakeTimeout bounds the wait for a client's HELLO. Before the
// handshake completes the connection has no ack loop and therefore no
// goroutine watching the shutdown signal, so an idle pre-HELLO stream
// must be reaped by deadline or it would wedge Close's wg.Wait.
const handshakeTimeout = 10 * time.Second

// closeGrace bounds how long Close lets in-flight I/O finish. The
// GOODBYE write gets this long to reach each client; a connection parked
// in handshake or an acker blocked writing to a client that stopped
// reading hits the deadline and tears down, so Close always returns.
const closeGrace = 2 * time.Second

// Serve accepts streams on ln until Close (→ ErrServerClosed) or a
// listener error. One Serve per Server.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		if tc, ok := nc.(*net.TCPConn); ok {
			_ = tc.SetReadBuffer(recvBuf)
		}
		c := &srvConn{srv: s, nc: nc, acks: make(chan ackMsg, 256),
			bye: make(chan struct{}), ackerGone: make(chan struct{})}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = nc.Close()
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.totalConns.Add(1)
		s.openConns.Add(1)
		go c.run()
	}
}

// Close stops accepting, sends GOODBYE to every open stream, closes
// them, and waits for the connection goroutines to finish. Every stream
// gets closeGrace to finish in-flight I/O: a deadline on the conn
// guarantees that readers parked in handshake and ackers blocked writing
// to stalled clients unblock, so Close cannot hang on a wedged peer.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	ln := s.ln
	deadline := time.Now().Add(closeGrace)
	for c := range s.conns {
		c.sayGoodbye()
		_ = c.nc.SetDeadline(deadline)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// ackMsg is one reader→acker handoff: a staged batch to acknowledge, a
// FLUSH barrier to serve (seq = last staged batch, no relation), or a
// terminal error to report before closing.
type ackMsg struct {
	seq    uint64
	rel    SinkRelation // staged batch: drain before acking
	err    error        // terminal: send ERROR and tear down
	errRel string       // relation at fault, "" for connection-level errors
}

// srvConn is one accepted stream.
type srvConn struct {
	srv  *Server
	nc   net.Conn
	acks chan ackMsg

	byeOnce sync.Once
	bye     chan struct{}
	// ackerGone is closed when the ack loop exits, unblocking reader
	// sends so a dead write side cannot wedge the read side.
	ackerGone chan struct{}
}

// sayGoodbye asks the acker to emit GOODBYE and tear the stream down.
func (c *srvConn) sayGoodbye() { c.byeOnce.Do(func() { close(c.bye) }) }

// run drives one connection: handshake, then reader + acker until either
// side errors or the server shuts down.
func (c *srvConn) run() {
	defer func() {
		_ = c.nc.Close()
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
		c.srv.openConns.Add(-1)
		c.srv.wg.Done()
	}()

	if err := c.handshake(); err != nil {
		c.srv.frameErrs.Add(1)
		return
	}

	go func() {
		c.ackLoop()
		close(c.ackerGone)
		// Unblock a reader parked in a socket read: with the write side
		// dead there will be no more ACKs, so the stream is over.
		_ = c.nc.Close()
	}()
	c.readLoop()
	// The reader is finished (EOF, error, or a terminal ackMsg was sent);
	// closing the channel lets the acker flush what it has and exit.
	close(c.acks)
	<-c.ackerGone
}

// send hands one message to the ack loop; false means the write side is
// already gone and the reader should stop.
func (c *srvConn) send(m ackMsg) bool {
	select {
	case c.acks <- m:
		return true
	case <-c.ackerGone:
		return false
	}
}

// handshake reads HELLO and answers WELCOME with the engine's resolved
// ingest mode, so a client can verify which write path its stream feeds.
// The read is bounded by handshakeTimeout — until the ack loop exists
// nothing else can reap an idle connection.
func (c *srvConn) handshake() error {
	_ = c.nc.SetReadDeadline(time.Now().Add(handshakeTimeout))
	var buf []byte
	body, err := ReadFrame(c.nc, &buf)
	if err != nil {
		return err
	}
	_ = c.nc.SetReadDeadline(time.Time{})
	var f Frame
	if err := DecodeFrame(body, &f); err != nil {
		return err
	}
	if f.Kind != KindHello {
		return fmt.Errorf("%w: expected HELLO, got %v", ErrBadFrame, f.Kind)
	}
	if f.Proto != ProtoVersion {
		c.writeFrame(&Frame{Kind: KindError, Text: fmt.Sprintf("unsupported protocol version %d (server speaks %d)", f.Proto, ProtoVersion)})
		return fmt.Errorf("%w: protocol version %d", ErrBadFrame, f.Proto)
	}
	return c.writeFrame(&Frame{
		Kind:  KindWelcome,
		Proto: ProtoVersion,
		Text:  c.srv.sink.IngestMode(),
	})
}

// writeFrame encodes and writes one frame. Only the handshake and the
// acker call it, so writes are single-goroutine by construction.
func (c *srvConn) writeFrame(f *Frame) error {
	_, err := c.nc.Write(AppendFrame(nil, f))
	return err
}

// readLoop decodes and stages frames until the stream ends or a frame is
// terminal. Decode scratch (read buffer, Frame.Vals) is reused across
// frames: the sink's batch paths copy staged ops before returning, so
// aliasing the scratch is safe and the per-row cost is pure encoding —
// no allocation, no syscall beyond the read itself.
// Sink relations are cached per connection, so steady-state batches skip
// the sink's catalog lookup.
func (c *srvConn) readLoop() {
	var (
		buf  []byte
		f    Frame
		rels = map[string]SinkRelation{}
		last uint64
	)
	fail := func(seq uint64, rel string, err error) {
		c.srv.frameErrs.Add(1)
		c.send(ackMsg{seq: seq, err: err, errRel: rel})
	}
	for {
		body, err := ReadFrame(c.nc, &buf)
		if err != nil {
			// EOF between frames is the client hanging up; anything else
			// (tear mid-frame, oversized prefix, socket error) is already
			// terminal — either way the stream is done and there is nobody
			// left to send an ERROR to.
			if err != io.EOF {
				c.srv.frameErrs.Add(1)
			}
			return
		}
		if err := DecodeFrame(body, &f); err != nil {
			fail(last, "", err)
			return
		}
		switch f.Kind {
		case KindBatch:
			if f.Seq <= last {
				fail(last, "", fmt.Errorf("%w: batch seq %d after %d", ErrBadFrame, f.Seq, last))
				return
			}
			last = f.Seq
			ent, ok := rels[f.Relation]
			if !ok {
				var err error
				if ent, err = c.srv.sink.Relation(f.Relation); err != nil {
					fail(f.Seq, f.Relation, err)
					return
				}
				rels[f.Relation] = ent
			}
			if f.Arity != ent.Arity() {
				fail(f.Seq, f.Relation, fmt.Errorf("%w: batch arity %d, relation %q has arity %d",
					ErrBadFrame, f.Arity, f.Relation, ent.Arity()))
				return
			}
			// A synchronous Apply failure (a relation's sticky
			// durability error reported by a delete, a router with every
			// target down) goes back as an ERROR frame naming the
			// relation, matching the HTTP ingest path's semantics.
			if err := ent.Apply(f.Del, f.Arity, f.Vals); err != nil {
				fail(f.Seq, f.Relation, err)
				return
			}
			c.srv.batches.Add(1)
			c.srv.rows.Add(int64(f.Rows()))
			if !c.send(ackMsg{seq: f.Seq, rel: ent}) {
				return
			}
		case KindFlush:
			// The barrier rides the ordinary ack path: a relation-less
			// message at the last staged seq forces the acker through a
			// drain round, and the resulting ACK of `last` covers every
			// batch sent before the FLUSH — exactly read-your-writes.
			c.srv.flushes.Add(1)
			if !c.send(ackMsg{seq: last}) {
				return
			}
		case KindGoodbye:
			// A polite client hanging up; nothing to do.
			return
		default:
			fail(last, "", fmt.Errorf("%w: unexpected %v from client", ErrBadFrame, f.Kind))
			return
		}
	}
}

// ackLoop owns the write side: it gathers pending ackMsgs (all that are
// immediately available — the coalescing window), drains each touched
// relation once, and acks the highest staged seq. A drain error is the
// relation's sticky oplog failure: it is reported as ERROR naming the
// relation and the stream is torn down — the client must know its
// pipeline's tail may not be durable. On server shutdown the loop sends
// GOODBYE instead of further ACKs.
func (c *srvConn) ackLoop() {
	var (
		touched []SinkRelation
		top     uint64
		have    bool
	)
	for {
		var (
			m  ackMsg
			ok bool
		)
		select {
		case <-c.bye:
			_ = c.writeFrame(&Frame{Kind: KindGoodbye, Text: "server shutting down"})
			return
		case m, ok = <-c.acks:
			if !ok {
				return
			}
		}
		touched = touched[:0]
		have = false
	gather:
		for {
			if m.err != nil {
				// Ack what is already staged and drained? No — the error
				// arrived after those batches; drain first so earlier
				// batches are honestly acked, then report.
				if have {
					if rel, err := c.drainAll(touched); err != nil {
						_ = c.writeFrame(&Frame{Kind: KindError, Seq: top, Relation: rel, Text: err.Error()})
						return
					}
					if err := c.writeFrame(&Frame{Kind: KindAck, Seq: top}); err != nil {
						return
					}
				}
				_ = c.writeFrame(&Frame{Kind: KindError, Seq: m.seq, Relation: m.errRel, Text: m.err.Error()})
				return
			}
			if m.rel != nil {
				if !containsRel(touched, m.rel) {
					touched = append(touched, m.rel)
				}
			}
			if m.seq > top {
				top = m.seq
			}
			have = true
			select {
			case m, ok = <-c.acks:
				if !ok {
					break gather
				}
			default:
				break gather
			}
		}
		if !have {
			continue
		}
		if rel, err := c.drainAll(touched); err != nil {
			c.srv.frameErrs.Add(1)
			_ = c.writeFrame(&Frame{Kind: KindError, Seq: top, Relation: rel, Text: err.Error()})
			return
		}
		if err := c.writeFrame(&Frame{Kind: KindAck, Seq: top}); err != nil {
			return
		}
		if !ok {
			return
		}
	}
}

// drainAll drains every touched relation; the first failure names it.
func (c *srvConn) drainAll(rels []SinkRelation) (string, error) {
	for _, r := range rels {
		if err := r.Drain(); err != nil {
			return r.Name(), err
		}
	}
	return "", nil
}

func containsRel(rels []SinkRelation, r SinkRelation) bool {
	for _, x := range rels {
		if x == r {
			return true
		}
	}
	return false
}
