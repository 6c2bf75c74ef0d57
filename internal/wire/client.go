package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"amstrack/internal/xrand"
)

// Options tunes a Client. The zero value is usable: one connection, the
// default ack window, and a jittered-backoff redial policy.
type Options struct {
	// Conns is the connection-pool size (0 → 1). Batches are spread
	// round-robin; batches on different connections have no ordering
	// relative to each other, which is safe for synopsis ingest because
	// updates commute (linearity) — use one connection if the stream
	// interleaves inserts and deletes of the same tuples and order
	// matters for exact intermediate counts.
	Conns int
	// Window is the per-connection ack window (0 → DefaultWindow): up to
	// this many batches may be in flight before the next send blocks.
	Window int
	// DialTimeout bounds each dial attempt (0 → 5s).
	DialTimeout time.Duration
	// RetryBackoff is the base delay between dial attempts, growing
	// exponentially with full jitter in [d/2, d) — the joinctl policy, so
	// a fleet of loaders does not hammer a restarting daemon in lockstep
	// (0 → 50ms).
	RetryBackoff time.Duration
	// DialRetries is the number of dial attempts per operation before it
	// reports failure (0 → 4). The connection stays marked broken, so the
	// NEXT operation retries again — persistent outages surface as errors
	// on every call, not hangs.
	DialRetries int
}

func (o Options) withDefaults() Options {
	if o.Conns <= 0 {
		o.Conns = 1
	}
	if o.Window <= 0 {
		o.Window = DefaultWindow
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
	if o.DialRetries <= 0 {
		o.DialRetries = 4
	}
	return o
}

// ErrGoodbye reports that the server announced shutdown mid-stream.
// Batches acked before the GOODBYE are durable on the server; anything
// still in flight must be considered lost.
var ErrGoodbye = errors.New("wire: server shutting down (GOODBYE)")

// ErrClosed is returned by operations on a closed client.
var ErrClosed = errors.New("wire: client closed")

// ErrInterrupted reports that the stream broke and was redialed while a
// call was waiting for acks. Batches sent before the failure were never
// acknowledged and must be considered lost; the redialed connection
// carries only traffic sent after it.
var ErrInterrupted = errors.New("wire: stream redialed while awaiting acks; unacked batches lost")

// ServerError is an ERROR frame surfaced to the caller: the server tore
// the stream down, naming the relation when one was at fault (a sticky
// oplog failure, an unknown relation, an arity mismatch).
type ServerError struct {
	Seq      uint64 // highest batch seq the error applies to
	Relation string // relation at fault, "" for connection-level errors
	Msg      string
}

func (e *ServerError) Error() string {
	if e.Relation != "" {
		return fmt.Sprintf("wire: server error (relation %q, seq %d): %s", e.Relation, e.Seq, e.Msg)
	}
	return fmt.Sprintf("wire: server error (seq %d): %s", e.Seq, e.Msg)
}

// Client streams batches to one amswire server over a pool of
// connections. All methods are safe for concurrent use. Batch encoding
// appends straight from the caller's slices into a per-connection reused
// buffer — zero allocations per op once the pool is warm. A transport
// failure fails the in-flight call (the client cannot know whether the
// server staged the batch, so it will not silently retry and risk
// double-applying ops into linear synopses) and redials in the
// background of the next call with jittered exponential backoff.
type Client struct {
	addr  string
	opts  Options
	conns []*clientConn
	next  atomic.Uint64

	mu     sync.Mutex
	closed bool
	mode   string // engine ingest mode from the first WELCOME
}

// Dial connects to an amswire server. The first pool connection is
// established (and its HELLO/WELCOME handshake completed) eagerly, so a
// wrong address or incompatible server fails here; the rest of the pool
// dials lazily.
func Dial(addr string, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	c := &Client{addr: addr, opts: opts, conns: make([]*clientConn, opts.Conns)}
	for i := range c.conns {
		c.conns[i] = newClientConn(addr, &c.opts, uint64(i))
	}
	cc := c.conns[0]
	cc.mu.Lock()
	err := cc.ensureLocked()
	mode := cc.mode
	cc.mu.Unlock()
	if err != nil {
		return nil, err
	}
	c.mode = mode
	return c, nil
}

// IngestMode reports the server's write-path label from the handshake
// ("absorber" for an engine, "routed" for a router).
func (c *Client) IngestMode() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mode
}

// pick spreads work round-robin over the pool.
func (c *Client) pick() (*clientConn, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	return c.conns[c.next.Add(1)%uint64(len(c.conns))], nil
}

// InsertBatch streams single-attribute inserts (relation arity 1).
func (c *Client) InsertBatch(relation string, vals []uint64) error {
	cc, err := c.pick()
	if err != nil {
		return err
	}
	return cc.sendBatch(relation, false, 1, vals)
}

// DeleteBatch streams single-attribute deletes.
func (c *Client) DeleteBatch(relation string, vals []uint64) error {
	cc, err := c.pick()
	if err != nil {
		return err
	}
	return cc.sendBatch(relation, true, 1, vals)
}

// InsertRows streams full tuples (each row the relation's complete
// attribute set in schema order, primary attribute first).
func (c *Client) InsertRows(relation string, rows [][]uint64) error {
	cc, err := c.pick()
	if err != nil {
		return err
	}
	return cc.sendRows(relation, false, rows)
}

// DeleteRows streams tuple deletes.
func (c *Client) DeleteRows(relation string, rows [][]uint64) error {
	cc, err := c.pick()
	if err != nil {
		return err
	}
	return cc.sendRows(relation, true, rows)
}

// Flush is the read-your-writes barrier: it sends FLUSH on every
// connection with unacked batches and blocks until each is fully acked —
// after it returns every previously sent batch is applied to the
// engine's synopses and OS-owned in the oplog.
func (c *Client) Flush() error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	var first error
	for _, cc := range c.conns {
		if err := cc.flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close flushes outstanding batches best-effort, says GOODBYE, and
// closes every connection. The client is unusable afterwards.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	var first error
	for _, cc := range c.conns {
		if err := cc.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// clientConn is one pooled stream. The mutex serializes the write side
// and the dial path; the reader goroutine owns the read side and feeds
// acked/err back under the same mutex.
type clientConn struct {
	addr string
	opts *Options
	rng  *xrand.Rand // jitter source; guarded by mu

	mu     sync.Mutex
	cond   *sync.Cond
	nc     net.Conn
	mode   string // server's ingest mode from WELCOME
	gen    uint64 // dial generation; bumped by every successful redial
	seq    uint64 // last sent batch seq (resets with the generation)
	acked  uint64 // last cumulatively acked seq (resets with the generation)
	err    error  // terminal stream error; cleared by the next successful redial
	fails  int    // consecutive dial failures, for backoff growth
	closed bool

	buf  []byte   // frame encode scratch
	flat []uint64 // row-flattening scratch

	sleep func(time.Duration) // test seam; nil means time.Sleep
}

func newClientConn(addr string, opts *Options, salt uint64) *clientConn {
	cc := &clientConn{addr: addr, opts: opts,
		rng: xrand.New(xrand.Seed() ^ (salt * 0x9E3779B97F4A7C15))}
	cc.cond = sync.NewCond(&cc.mu)
	return cc
}

// ensureLocked makes the connection usable: if it is fresh or broken it
// redials (up to DialRetries attempts with jittered exponential backoff)
// and runs the handshake. Caller holds mu. The backoff sleeps drop the
// mutex, so while one caller waits out a retry storm the others are not
// wedged behind it — they queue on the lock, observe the broken state,
// and either find the connection repaired or join the retry accounting.
func (cc *clientConn) ensureLocked() error {
	if cc.closed {
		return ErrClosed
	}
	if cc.nc != nil && cc.err == nil {
		return nil
	}
	var lastErr error
	for attempt := 0; attempt < cc.opts.DialRetries; attempt++ {
		if cc.fails > 0 {
			cc.pause()
			// The lock was dropped during the sleep: another caller may
			// have closed the client or already repaired the connection.
			if cc.closed {
				return ErrClosed
			}
			if cc.nc != nil && cc.err == nil {
				return nil
			}
		}
		if cc.nc != nil {
			_ = cc.nc.Close()
			cc.nc = nil
		}
		if err := cc.dialLocked(); err != nil {
			cc.fails++
			lastErr = err
			continue
		}
		cc.fails = 0
		cc.err = nil
		return nil
	}
	return fmt.Errorf("wire: %d dial attempts to %s exhausted: %w", cc.opts.DialRetries, cc.addr, lastErr)
}

// pause sleeps the jittered exponential backoff for the current failure
// streak (xrand.Backoff, the coordinator fetcher's policy). Caller holds
// mu; the sleep itself releases it so Flush/Close and the other pool
// users are never parked behind a multi-second retry storm.
func (cc *clientConn) pause() {
	d := cc.rng.Backoff(cc.opts.RetryBackoff, cc.fails)
	sleep := cc.sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	cc.mu.Unlock()
	sleep(d)
	cc.mu.Lock()
}

// dialLocked performs one dial + handshake attempt.
func (cc *clientConn) dialLocked() error {
	nc, err := net.DialTimeout("tcp", cc.addr, cc.opts.DialTimeout)
	if err != nil {
		return err
	}
	cc.buf = AppendFrame(cc.buf[:0], &Frame{Kind: KindHello, Proto: ProtoVersion, Window: uint32(cc.opts.Window)})
	if _, err := nc.Write(cc.buf); err != nil {
		_ = nc.Close()
		return err
	}
	var rbuf []byte
	body, err := ReadFrame(nc, &rbuf)
	if err != nil {
		_ = nc.Close()
		return err
	}
	var f Frame
	if err := DecodeFrame(body, &f); err != nil {
		_ = nc.Close()
		return err
	}
	switch f.Kind {
	case KindWelcome:
	case KindError:
		_ = nc.Close()
		return &ServerError{Seq: f.Seq, Relation: f.Relation, Msg: f.Text}
	default:
		_ = nc.Close()
		return fmt.Errorf("%w: expected WELCOME, got %v", ErrBadFrame, f.Kind)
	}
	cc.nc = nc
	cc.mode = f.Text
	cc.seq, cc.acked = 0, 0
	cc.gen++
	// Wake waiters parked on the previous generation's acks; they check
	// the generation and report ErrInterrupted instead of matching their
	// stale targets against the fresh stream's counters.
	cc.cond.Broadcast()
	go cc.readLoop(nc)
	return nil
}

// readLoop consumes ACK/ERROR/GOODBYE frames for one dialed generation.
// It binds to its own net.Conn: after a redial, a stale reader's state
// updates are discarded.
func (cc *clientConn) readLoop(nc net.Conn) {
	var (
		buf []byte
		f   Frame
	)
	for {
		body, err := ReadFrame(nc, &buf)
		if err == nil {
			err = DecodeFrame(body, &f)
		}
		cc.mu.Lock()
		if cc.nc != nc { // stale generation
			cc.mu.Unlock()
			return
		}
		if err != nil {
			if cc.err == nil {
				cc.err = fmt.Errorf("wire: stream to %s broken: %w", cc.addr, err)
			}
			cc.cond.Broadcast()
			cc.mu.Unlock()
			return
		}
		switch f.Kind {
		case KindAck:
			if f.Seq > cc.acked {
				cc.acked = f.Seq
			}
			cc.cond.Broadcast()
		case KindError:
			if cc.err == nil {
				cc.err = &ServerError{Seq: f.Seq, Relation: f.Relation, Msg: f.Text}
			}
			cc.cond.Broadcast()
			cc.mu.Unlock()
			return
		case KindGoodbye:
			if cc.err == nil {
				cc.err = ErrGoodbye
			}
			cc.cond.Broadcast()
			cc.mu.Unlock()
			return
		default:
			if cc.err == nil {
				cc.err = fmt.Errorf("%w: unexpected %v from server", ErrBadFrame, f.Kind)
			}
			cc.cond.Broadcast()
			cc.mu.Unlock()
			return
		}
		cc.mu.Unlock()
	}
}

// maxBatchVals bounds one frame's value payload; larger batches split
// transparently into multiple frames (each under MaxFrame).
const maxBatchVals = (MaxFrame - 1024) / 8

// sendBatch encodes and writes arity-1 (or pre-flattened) values as one
// or more BATCH frames, respecting the ack window.
func (cc *clientConn) sendBatch(relation string, del bool, arity int, vals []uint64) error {
	if len(vals) == 0 {
		return nil
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if err := cc.ensureLocked(); err != nil {
		return err
	}
	chunk := maxBatchVals - maxBatchVals%arity
	for off := 0; off < len(vals); off += chunk {
		end := off + chunk
		if end > len(vals) {
			end = len(vals)
		}
		if err := cc.writeBatchLocked(relation, del, arity, vals[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// sendRows flattens tuple rows into the connection's scratch and streams
// them; the scratch is reused, so steady-state row ingest allocates
// nothing per op.
func (cc *clientConn) sendRows(relation string, del bool, rows [][]uint64) error {
	if len(rows) == 0 {
		return nil
	}
	arity := len(rows[0])
	if arity < 1 || arity > MaxArity {
		return fmt.Errorf("%w: row arity %d (1..%d)", ErrBadFrame, arity, MaxArity)
	}
	for i, row := range rows {
		if len(row) != arity {
			return fmt.Errorf("%w: row %d has %d values, row 0 has %d", ErrBadFrame, i, len(row), arity)
		}
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if err := cc.ensureLocked(); err != nil {
		return err
	}
	cc.flat = cc.flat[:0]
	for _, row := range rows {
		cc.flat = append(cc.flat, row...)
	}
	chunk := maxBatchVals - maxBatchVals%arity
	for off := 0; off < len(cc.flat); off += chunk {
		end := off + chunk
		if end > len(cc.flat) {
			end = len(cc.flat)
		}
		if err := cc.writeBatchLocked(relation, del, arity, cc.flat[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// writeBatchLocked sends one BATCH frame, blocking while the ack window
// is full. Caller holds mu and has ensured the connection. The window
// wait is generation-checked: if the stream breaks and another caller
// redials while we sleep, our earlier frames died with the old
// connection, so continuing on the fresh one would silently drop the
// batch's prefix — report ErrInterrupted instead.
func (cc *clientConn) writeBatchLocked(relation string, del bool, arity int, vals []uint64) error {
	gen := cc.gen
	for cc.seq-cc.acked >= uint64(cc.opts.Window) && cc.err == nil && cc.gen == gen {
		cc.cond.Wait()
	}
	if cc.gen != gen {
		return ErrInterrupted
	}
	if cc.err != nil {
		return cc.takeErrLocked()
	}
	cc.seq++
	f := Frame{Kind: KindBatch, Seq: cc.seq, Del: del, Arity: arity, Relation: relation, Vals: vals}
	cc.buf = AppendFrame(cc.buf[:0], &f)
	if _, err := cc.nc.Write(cc.buf); err != nil {
		if cc.err == nil {
			cc.err = err
		}
		return cc.takeErrLocked()
	}
	return nil
}

// takeErrLocked reports the terminal error and leaves the connection
// marked broken, so the next operation redials.
func (cc *clientConn) takeErrLocked() error {
	err := cc.err
	if cc.nc != nil {
		_ = cc.nc.Close()
	}
	return err
}

// flush sends FLUSH and waits for the cumulative ack to reach the last
// sent seq. A connection that was never dialed (or has nothing unacked)
// returns immediately. The wait is generation-checked: `target` is
// meaningful only on the connection that sent it, so if a concurrent
// sender redials while we sleep (resetting seq/acked for the fresh
// stream), comparing the new generation's acks against the old target
// could claim lost pre-failure batches were durable — report
// ErrInterrupted instead.
func (cc *clientConn) flush() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.closed {
		return ErrClosed
	}
	if cc.err != nil {
		return cc.takeErrLocked()
	}
	if cc.nc == nil || cc.seq == cc.acked {
		return nil
	}
	gen := cc.gen
	target := cc.seq
	cc.buf = AppendFrame(cc.buf[:0], &Frame{Kind: KindFlush, Seq: target})
	if _, err := cc.nc.Write(cc.buf); err != nil {
		if cc.err == nil {
			cc.err = err
		}
		return cc.takeErrLocked()
	}
	for cc.acked < target && cc.err == nil && cc.gen == gen {
		cc.cond.Wait()
	}
	if cc.gen != gen {
		return ErrInterrupted
	}
	if cc.err != nil {
		return cc.takeErrLocked()
	}
	return nil
}

// close flushes best-effort, says GOODBYE, and closes.
func (cc *clientConn) close() error {
	err := cc.flush()
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.closed = true
	if cc.nc != nil {
		cc.buf = AppendFrame(cc.buf[:0], &Frame{Kind: KindGoodbye, Text: "client closing"})
		_, _ = cc.nc.Write(cc.buf)
		_ = cc.nc.Close()
		cc.nc = nil
	}
	cc.cond.Broadcast()
	if errors.Is(err, ErrClosed) {
		return nil
	}
	return err
}
