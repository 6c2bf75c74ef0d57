package wire

import (
	"errors"
	"fmt"
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

// ErrClosed is returned by operations on a closed client, and is the
// cause of a stream its owner closed.
var ErrClosed = errors.New("wire: client closed")

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

// Client streams batches to one amswire server over a pool of streams.
// All methods are safe for concurrent use. Batch encoding appends
// straight from the caller's slices into each stream's reused buffer —
// zero allocations per op once the pool is warm.
//
// A stream that ends (the server hung up, sent ERROR or GOODBYE, or
// stopped acking for DefaultAckTimeout) with batches un-acked is
// reported once, by its cause, to the next call on its connection; the
// call after that redials with jittered exponential backoff. The client
// cannot know whether the server staged those batches, so it never
// resends them and risks double-applying ops into linear synopses. A
// stream that ended with every batch acked redials silently. So a nil
// Flush means every batch sent before it was acked.
type Client struct {
	opts   Options
	conns  []*clientConn
	next   atomic.Uint64
	mode   string         // engine ingest mode from the first WELCOME
	runs   sync.WaitGroup // every stream's Run
	closed atomic.Bool
}

// Dial connects to an amswire server. The first pool connection is
// established (and its HELLO/WELCOME handshake completed) eagerly, so a
// wrong address or incompatible server fails here; the rest of the pool
// dials lazily.
func Dial(addr string, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	c := &Client{opts: opts, conns: make([]*clientConn, opts.Conns)}
	for i := range c.conns {
		c.conns[i] = &clientConn{addr: addr, opts: &c.opts, runs: &c.runs,
			rng: xrand.New(xrand.Seed() ^ (uint64(i) * 0x9E3779B97F4A7C15))}
	}
	cc := c.conns[0]
	cc.mu.Lock()
	st, err := cc.streamLocked()
	cc.mu.Unlock()
	if err != nil {
		return nil, err
	}
	c.mode = st.IngestMode()
	return c, nil
}

// IngestMode reports the server's write-path label from the handshake
// ("absorber" for an engine, "routed" for a router).
func (c *Client) IngestMode() string { return c.mode }

// pick spreads work round-robin over the pool.
func (c *Client) pick() (*clientConn, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	return c.conns[c.next.Add(1)%uint64(len(c.conns))], nil
}

// InsertBatch streams single-attribute inserts (relation arity 1).
func (c *Client) InsertBatch(relation string, vals []uint64) error {
	return c.sendVals(relation, false, vals)
}

// DeleteBatch streams single-attribute deletes.
func (c *Client) DeleteBatch(relation string, vals []uint64) error {
	return c.sendVals(relation, true, vals)
}

// InsertRows streams full tuples (each row the relation's complete
// attribute set in schema order, primary attribute first).
func (c *Client) InsertRows(relation string, rows [][]uint64) error {
	return c.sendRows(relation, false, rows)
}

// DeleteRows streams tuple deletes.
func (c *Client) DeleteRows(relation string, rows [][]uint64) error {
	return c.sendRows(relation, true, rows)
}

// Flush is the read-your-writes barrier: it sends FLUSH on every
// connection with unacked batches and blocks until each is fully acked —
// after it returns nil every previously sent batch is applied to the
// engine's synopses and OS-owned in the oplog.
func (c *Client) Flush() error {
	if c.closed.Load() {
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

// Close flushes outstanding batches best-effort and closes every
// stream. The client is unusable afterwards.
func (c *Client) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	var first error
	for _, cc := range c.conns {
		if err := cc.close(); err != nil && first == nil {
			first = err
		}
	}
	c.runs.Wait()
	return first
}

// clientConn is one pooled connection: the current stream and its
// redial state. The mutex serializes the send paths and the redial.
type clientConn struct {
	addr string
	opts *Options
	runs *sync.WaitGroup
	rng  *xrand.Rand // jitter source; guarded by mu

	mu     sync.Mutex
	st     *Stream[struct{}] // nil before the first dial and once an end is reported
	fails  int               // consecutive dial failures, for backoff growth
	closed bool

	flat []uint64 // row-flattening scratch

	sleep func(time.Duration) // test seam; nil means time.Sleep
}

// streamLocked returns the connection's live stream. A stream that
// ended is replaced: if it left batches un-acked, this call reports its
// cause and the next one redials; otherwise it redials now, up to
// DialRetries attempts with jittered exponential backoff. Caller holds
// mu. The backoff sleeps drop the mutex, so while one caller waits out a
// retry storm the others are not wedged behind it — they queue on the
// lock and either find the connection repaired or join the retry
// accounting.
func (cc *clientConn) streamLocked() (*Stream[struct{}], error) {
	if cc.closed {
		return nil, ErrClosed
	}
	if st := cc.st; st != nil {
		if st.Err() == nil {
			return st, nil
		}
		cc.st = nil
		if err := st.Flush(); err != nil {
			return nil, err
		}
	}
	var lastErr error
	for attempt := 0; attempt < cc.opts.DialRetries; attempt++ {
		if cc.fails > 0 {
			cc.pause()
			// The lock was dropped during the sleep: another caller may
			// have closed the client or already repaired the connection.
			if cc.closed {
				return nil, ErrClosed
			}
			if cc.st != nil && cc.st.Err() == nil {
				return cc.st, nil
			}
		}
		st, err := DialStream[struct{}](cc.addr, cc.opts.Window, DefaultAckTimeout)
		if err != nil {
			cc.fails++
			lastErr = err
			continue
		}
		cc.fails = 0
		cc.st = st
		cc.runs.Add(1)
		go func() {
			defer cc.runs.Done()
			_, _ = st.Run(nil)
		}()
		return st, nil
	}
	return nil, fmt.Errorf("wire: %d dial attempts to %s exhausted: %w", cc.opts.DialRetries, cc.addr, lastErr)
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

// sendVals streams arity-1 values over the next pooled connection.
func (c *Client) sendVals(relation string, del bool, vals []uint64) error {
	cc, err := c.pick()
	if err != nil || len(vals) == 0 {
		return err
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.sendLocked(relation, del, 1, vals)
}

// sendRows flattens tuple rows into the next pooled connection's scratch
// and streams them; the scratch is reused, so steady-state row ingest
// allocates nothing per op.
func (c *Client) sendRows(relation string, del bool, rows [][]uint64) error {
	cc, err := c.pick()
	if err != nil || len(rows) == 0 {
		return err
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
	cc.flat = cc.flat[:0]
	for _, row := range rows {
		cc.flat = append(cc.flat, row...)
	}
	return cc.sendLocked(relation, del, arity, cc.flat)
}

// sendLocked streams row-major vals as one or more BATCH frames. A
// stream that ends before taking one of them reports its cause here,
// and the next call redials. Caller holds mu.
func (cc *clientConn) sendLocked(relation string, del bool, arity int, vals []uint64) error {
	st, err := cc.streamLocked()
	if err != nil {
		return err
	}
	chunk := MaxBatchVals - MaxBatchVals%arity
	for off := 0; off < len(vals); off += chunk {
		if err := st.Send(struct{}{}, relation, del, arity, vals[off:min(off+chunk, len(vals))]); err != nil {
			cc.st = nil
			return err
		}
	}
	return nil
}

// flush waits until every batch sent on the current stream is acked. A
// stream whose end it reports is dropped, so the next call redials.
func (cc *clientConn) flush() error {
	cc.mu.Lock()
	st, closed := cc.st, cc.closed
	cc.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if st == nil {
		return nil
	}
	err := st.Flush()
	if err != nil {
		cc.mu.Lock()
		if cc.st == st {
			cc.st = nil
		}
		cc.mu.Unlock()
	}
	return err
}

// close flushes best-effort and ends the stream.
func (cc *clientConn) close() error {
	cc.mu.Lock()
	st := cc.st
	cc.st, cc.closed = nil, true
	cc.mu.Unlock()
	if st == nil {
		return nil
	}
	err := st.Flush()
	st.Close()
	return err
}
