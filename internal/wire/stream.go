package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// DialTimeout bounds a stream's dial and its HELLO/WELCOME handshake
// together: a server that accepts the connection but never answers
// fails the dial instead of wedging it.
const DialTimeout = 5 * time.Second

// DefaultAckTimeout is how long a Client's stream with batches pending
// waits for ACK progress before it ends: a server that stopped
// acknowledging is treated like a dead connection.
const DefaultAckTimeout = 10 * time.Second

// Stream is one client-side amswire stream, and the protocol's only
// client-side speaker: Client pools streams, and the ingest router keeps
// one per node. Send numbers each batch and holds the caller's tag as
// pending until a cumulative ACK covers it. Run hands every tag back
// exactly once, in send order: through its ACK callback as acks arrive,
// or, at the stream's single end, in the un-acked suffix it returns with
// the cause. Because one stream is one ordered TCP connection, that
// suffix is exactly the batches the server may not have acknowledged.
//
// While batches are pending, the read deadline is the ACK timeout: it is
// armed when a batch is sent to an idle stream and re-armed by every ACK
// that makes progress, and silence past it ends the stream. All methods
// are safe for concurrent use, and none calls back into the owner while
// holding a lock.
type Stream[T any] struct {
	nc         net.Conn
	mode       string // the server's ingest mode from WELCOME
	window     int
	ackTimeout time.Duration

	wmu sync.Mutex // serializes frame writes, so seqs reach the server in order
	buf []byte     // frame encode scratch; guarded by wmu

	mu      sync.Mutex
	cond    *sync.Cond // broadcast on ACK progress and at the end
	seq     uint64     // last batch seq taken
	acked   uint64     // last cumulative ACK; acked+len(pending) == seq while live
	pending []T        // tags of batches acked+1..seq, in send order
	err     error      // the end's cause; nil while the stream is live
}

// DialStream dials an amswire server and completes the HELLO/WELCOME
// handshake within DialTimeout. window is the ack window announced in
// HELLO and enforced by Send; ackTimeout bounds the wait for ACK
// progress while batches are pending. The owner must start Run.
func DialStream[T any](addr string, window int, ackTimeout time.Duration) (*Stream[T], error) {
	deadline := time.Now().Add(DialTimeout)
	nc, err := (&net.Dialer{Deadline: deadline}).Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Stream[T]{nc: nc, window: window, ackTimeout: ackTimeout}
	s.cond = sync.NewCond(&s.mu)
	if err := s.handshake(deadline); err != nil {
		_ = nc.Close()
		return nil, err
	}
	return s, nil
}

func (s *Stream[T]) handshake(deadline time.Time) error {
	if err := s.nc.SetDeadline(deadline); err != nil {
		return err
	}
	s.buf = AppendFrame(s.buf[:0], &Frame{Kind: KindHello, Proto: ProtoVersion, Window: uint32(s.window)})
	if _, err := s.nc.Write(s.buf); err != nil {
		return fmt.Errorf("send HELLO: %w", err)
	}
	var rbuf []byte
	body, err := ReadFrame(s.nc, &rbuf)
	if err != nil {
		return fmt.Errorf("read WELCOME: %w", err)
	}
	var f Frame
	if err := DecodeFrame(body, &f); err != nil {
		return fmt.Errorf("read WELCOME: %w", err)
	}
	switch f.Kind {
	case KindWelcome:
	case KindError:
		return &ServerError{Seq: f.Seq, Relation: f.Relation, Msg: f.Text}
	default:
		return fmt.Errorf("%w: expected WELCOME, got %v", ErrBadFrame, f.Kind)
	}
	s.mode = f.Text
	return s.nc.SetDeadline(time.Time{})
}

// IngestMode reports the server's write-path label from WELCOME.
func (s *Stream[T]) IngestMode() string { return s.mode }

// Send numbers one BATCH frame, records tag as pending, and writes the
// frame, blocking while the window is full. It errs only when the stream
// ended before it took the batch: the caller still owns that batch. A
// batch Send took comes back through Run, acked or in the end's suffix;
// a failed write ends the stream rather than failing the call.
func (s *Stream[T]) Send(tag T, relation string, del bool, arity int, vals []uint64) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	for len(s.pending) >= s.window && s.err == nil {
		s.cond.Wait()
	}
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return err
	}
	s.seq++
	seq := s.seq
	s.pending = append(s.pending, tag)
	if len(s.pending) == 1 {
		_ = s.nc.SetReadDeadline(time.Now().Add(s.ackTimeout))
	}
	s.mu.Unlock()
	s.buf = AppendFrame(s.buf[:0], &Frame{Kind: KindBatch, Seq: seq, Del: del, Arity: arity, Relation: relation, Vals: vals})
	if _, err := s.nc.Write(s.buf); err != nil {
		s.end(fmt.Errorf("wire: write batch to %s: %w", s.nc.RemoteAddr(), err))
	}
	return nil
}

// Pending reports how many batches Send took that no ACK has covered
// yet: at most the window while the stream is live.
func (s *Stream[T]) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Flush sends FLUSH and waits until every batch sent before it is
// acked. It returns nil then, or the end's cause if the stream ended
// first. On a stream that has already ended it returns at once: nil if
// nothing was left un-acked, else the cause.
func (s *Stream[T]) Flush() error {
	s.wmu.Lock()
	s.mu.Lock()
	target := s.seq
	send := s.err == nil && s.acked < target
	s.mu.Unlock()
	if send {
		s.buf = AppendFrame(s.buf[:0], &Frame{Kind: KindFlush, Seq: target})
		if _, err := s.nc.Write(s.buf); err != nil {
			s.end(fmt.Errorf("wire: write FLUSH to %s: %w", s.nc.RemoteAddr(), err))
		}
	}
	s.wmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.acked < target && s.err == nil {
		s.cond.Wait()
	}
	if s.acked < target {
		return s.err
	}
	return nil
}

// Err returns the cause the stream ended with, or nil while it is live.
func (s *Stream[T]) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close ends the stream with ErrClosed; Run then returns the un-acked
// suffix. An idle stream — every batch acked, no write in progress —
// says GOODBYE first, which cannot block: the server has read every
// batch, so the socket holds at most a few FLUSH frames unread. Close
// never blocks, so an owner may call it under its own lock.
func (s *Stream[T]) Close() {
	if s.wmu.TryLock() {
		s.mu.Lock()
		idle := s.err == nil && len(s.pending) == 0
		s.mu.Unlock()
		if idle {
			s.buf = AppendFrame(s.buf[:0], &Frame{Kind: KindGoodbye, Text: "client closing"})
			_, _ = s.nc.Write(s.buf)
		}
		s.wmu.Unlock()
	}
	s.end(ErrClosed)
}

// end records cause unless the stream already ended, wakes every
// waiter, and closes the connection so Run and any blocked write return.
func (s *Stream[T]) end(cause error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = cause
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	_ = s.nc.Close()
}

// Run reads the server's frames until the stream ends; the owner starts
// it once, on a goroutine of its own. acked, if not nil, receives the
// tags each cumulative ACK covers, in send order; it must not keep the
// slice. Run returns at the stream's end: the tags still un-acked, in
// send order, and the cause.
func (s *Stream[T]) Run(acked func([]T)) ([]T, error) {
	var (
		rbuf []byte
		f    Frame
		done []T
	)
	for {
		body, err := ReadFrame(s.nc, &rbuf)
		if err == nil {
			err = DecodeFrame(body, &f)
		}
		switch {
		case err != nil:
			if ne := net.Error(nil); errors.As(err, &ne) && ne.Timeout() {
				err = fmt.Errorf("wire: no ACK progress within %v: %w", s.ackTimeout, err)
			} else {
				err = fmt.Errorf("wire: stream to %s broken: %w", s.nc.RemoteAddr(), err)
			}
		case f.Kind == KindAck:
			if done = s.ack(f.Seq, done[:0]); len(done) > 0 && acked != nil {
				acked(done)
			}
			continue
		case f.Kind == KindError:
			err = &ServerError{Seq: f.Seq, Relation: f.Relation, Msg: f.Text}
		case f.Kind == KindGoodbye:
			err = ErrGoodbye
		default:
			err = fmt.Errorf("%w: unexpected %v from server", ErrBadFrame, f.Kind)
		}
		s.end(err)
		s.mu.Lock()
		rest, cause := s.pending, s.err
		s.pending = nil
		s.mu.Unlock()
		return rest, cause
	}
}

// ack applies a cumulative ACK of seq: it moves the tags it covers from
// pending onto done and re-arms the ACK deadline, or clears it once
// nothing is pending.
func (s *Stream[T]) ack(seq uint64, done []T) []T {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq <= s.acked {
		return done
	}
	k := int(min(seq, s.seq) - s.acked)
	s.acked += uint64(k)
	done = append(done, s.pending[:k]...)
	n := copy(s.pending, s.pending[k:])
	clear(s.pending[n:])
	s.pending = s.pending[:n]
	if n == 0 {
		_ = s.nc.SetReadDeadline(time.Time{})
	} else {
		_ = s.nc.SetReadDeadline(time.Now().Add(s.ackTimeout))
	}
	s.cond.Broadcast()
	return done
}
