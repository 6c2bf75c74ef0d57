package wire

import (
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"amstrack/internal/xrand"
)

// fakeServer accepts amswire streams on a loopback port, answers each
// HELLO with WELCOME, and hands the stream to serve with its accept
// index (0 for the first) and the HELLO it sent. serve owns the
// connection until it returns; the test waits for every serve.
func fakeServer(t *testing.T, serve func(i int, nc net.Conn, hello Frame)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		_ = ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer nc.Close()
				var (
					rb    []byte
					hello Frame
				)
				body, err := ReadFrame(nc, &rb)
				if err != nil || DecodeFrame(body, &hello) != nil || hello.Kind != KindHello {
					return
				}
				if _, err := nc.Write(AppendFrame(nil, &Frame{Kind: KindWelcome, Proto: ProtoVersion, Text: "fake"})); err != nil {
					return
				}
				serve(i, nc, hello)
			}(i)
		}
	}()
	return ln.Addr().String()
}

// streamEnd is what Run handed back: the acked tags in callback order,
// then the un-acked suffix and the cause.
type streamEnd struct {
	acked, rest []int
	err         error
}

// runStream starts st's Run, collecting every acked tag.
func runStream(st *Stream[int]) <-chan streamEnd {
	ended := make(chan streamEnd, 1)
	go func() {
		var e streamEnd
		e.rest, e.err = st.Run(func(tags []int) { e.acked = append(e.acked, tags...) })
		ended <- e
	}()
	return ended
}

// TestStreamTagsComeBackOnce is the stream's contract as a property.
// The server ACKs random prefixes, then at a random frame hangs up,
// sends ERROR, sends GOODBYE or stops reading; on some seeds the owner
// closes the stream under a running sender. Whatever the end, every tag
// Send took comes back exactly once and in send order: the acked ones
// through Run's callback, then the rest in the end's suffix.
func TestStreamTagsComeBackOnce(t *testing.T) {
	const (
		seeds      = 40
		tags       = 64
		ackTimeout = 50 * time.Millisecond
	)
	addr := fakeServer(t, func(i int, nc net.Conn, hello Frame) {
		rng := xrand.New(uint64(i)*0x9E3779B97F4A7C15 + 1)
		endAt := 1 + int(rng.Uint64n(2*tags))
		var (
			rb          []byte
			f           Frame
			last, acked uint64
		)
		for frame := 1; ; frame++ {
			if frame == endAt {
				switch rng.Uint64n(4) {
				case 0: // hang up
				case 1:
					_, _ = nc.Write(AppendFrame(nil, &Frame{Kind: KindError, Seq: last, Relation: "f", Text: "injected"}))
				case 2:
					_, _ = nc.Write(AppendFrame(nil, &Frame{Kind: KindGoodbye, Text: "injected"}))
				default: // stop reading and acking until the client gives up
					time.Sleep(4 * ackTimeout)
					_, _ = io.Copy(io.Discard, nc)
				}
				return
			}
			body, err := ReadFrame(nc, &rb)
			if err != nil || DecodeFrame(body, &f) != nil {
				return
			}
			if f.Kind == KindBatch {
				last = f.Seq
			}
			// ACK a random prefix of what is un-acked; always some of it
			// once the client's window is full, so the stream progresses.
			unacked := last - acked
			if unacked > 0 && (f.Kind == KindFlush || unacked >= uint64(hello.Window) || rng.Uint64n(2) == 0) {
				acked += 1 + rng.Uint64n(unacked)
				if f.Kind == KindFlush {
					acked = last
				}
				if _, err := nc.Write(AppendFrame(nil, &Frame{Kind: KindAck, Seq: acked})); err != nil {
					return
				}
			}
		}
	})
	for seed := 0; seed < seeds; seed++ {
		st, err := DialStream[int](addr, 1+seed%8, ackTimeout)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ended := runStream(st)
		rng := xrand.New(uint64(seed) ^ 0x5bd1e995)
		if seed%5 == 4 {
			delay := time.Duration(rng.Uint64n(uint64(2 * time.Millisecond)))
			go func() {
				time.Sleep(delay)
				st.Close()
			}()
		}
		var taken []int
		for tag := 0; tag < tags; tag++ {
			if rng.Uint64n(8) == 0 {
				_ = st.Flush()
			}
			if st.Send(tag, "f", false, 1, []uint64{uint64(tag)}) != nil {
				break
			}
			taken = append(taken, tag)
		}
		_ = st.Flush()
		st.Close()
		e := <-ended
		if got := append(e.acked, e.rest...); !slices.Equal(got, taken) {
			t.Fatalf("seed %d: acked %v then suffix %v; Send took %v", seed, e.acked, e.rest, taken)
		}
		if e.err == nil || st.Err() == nil {
			t.Fatalf("seed %d: the stream ended without a cause", seed)
		}
		if err := st.Send(-1, "f", false, 1, []uint64{0}); err == nil {
			t.Fatalf("seed %d: Send took a batch after the end", seed)
		}
	}
}

// TestStreamAckTimeout: against a server that reads everything and
// ACKs nothing, the ACK deadline armed at send ends the stream, Flush
// reports it, and the end hands the batch back.
func TestStreamAckTimeout(t *testing.T) {
	const ackTimeout = 200 * time.Millisecond
	addr := fakeServer(t, func(_ int, nc net.Conn, _ Frame) {
		_, _ = io.Copy(io.Discard, nc)
	})
	st, err := DialStream[int](addr, 4, ackTimeout)
	if err != nil {
		t.Fatal(err)
	}
	ended := runStream(st)
	start := time.Now()
	if err := st.Send(7, "f", false, 1, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err == nil {
		t.Fatal("Flush returned nil, but nothing was acked")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Flush took %v with a %v ACK timeout", d, ackTimeout)
	}
	e := <-ended
	var ne net.Error
	if !errors.As(e.err, &ne) || !ne.Timeout() {
		t.Fatalf("end cause %v, want an ACK timeout", e.err)
	}
	if len(e.acked) != 0 || !slices.Equal(e.rest, []int{7}) {
		t.Fatalf("acked %v, suffix %v; want the batch back in the suffix", e.acked, e.rest)
	}
}
