package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"amstrack/internal/engine"
	"amstrack/internal/oplog"
)

// memOpts is the in-memory engine shape shared by server and mirror —
// bundle comparison needs equal Seed and dimensions on both sides.
func memOpts() engine.Options {
	return engine.Options{SignatureWords: 64, Seed: 7, SketchS1: 64, SketchS2: 4, Shards: 2}
}

// startServer serves eng on an ephemeral TCP port and tears everything
// down with the test.
func startServer(t *testing.T, eng *engine.Engine) (*Server, string) {
	t.Helper()
	srv := NewServer(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return srv, ln.Addr().String()
}

func newEngine(t *testing.T, opts engine.Options) *engine.Engine {
	t.Helper()
	e, err := engine.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	return e
}

// expectSameRelation asserts the wire-fed engine and the directly-fed
// mirror hold bit-identical synopses for name — the linearity guarantee
// the protocol must preserve.
func expectSameRelation(t *testing.T, got, want *engine.Engine, name string) {
	t.Helper()
	gb, err := got.ExportRelation(name)
	if err != nil {
		t.Fatalf("%s: export got: %v", name, err)
	}
	wb, err := want.ExportRelation(name)
	if err != nil {
		t.Fatalf("%s: export want: %v", name, err)
	}
	if !bytes.Equal(gb, wb) {
		t.Fatalf("%s: wire-fed synopsis differs from mirror (%d vs %d bundle bytes)", name, len(gb), len(wb))
	}
}

func TestWireEndToEnd(t *testing.T) {
	eng := newEngine(t, memOpts())
	mirror := newEngine(t, memOpts())
	for _, e := range []*engine.Engine{eng, mirror} {
		if _, err := e.Define("f"); err != nil {
			t.Fatal(err)
		}
		if _, err := e.DefineSchema("g", engine.Schema{Attrs: []string{"a", "b"}}); err != nil {
			t.Fatal(err)
		}
	}
	srv, addr := startServer(t, eng)

	cl, err := Dial(addr, Options{Conns: 2, Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cl.IngestMode(), eng.Options().IngestMode.String(); got != want {
		t.Fatalf("handshake ingest mode %q, engine resolved %q", got, want)
	}

	// Single-attribute inserts and deletes, spread over several batches so
	// both pool connections and the ack pipeline see traffic.
	mf, _ := mirror.Get("f")
	var rows int64
	for b := 0; b < 8; b++ {
		vals := make([]uint64, 100)
		for i := range vals {
			vals[i] = uint64(b*31+i) % 257
		}
		if err := cl.InsertBatch("f", vals); err != nil {
			t.Fatal(err)
		}
		mf.InsertBatch(vals)
		rows += int64(len(vals))
	}
	del := []uint64{3, 9, 27, 81}
	if err := cl.DeleteBatch("f", del); err != nil {
		t.Fatal(err)
	}
	if err := mf.DeleteBatch(del); err != nil {
		t.Fatal(err)
	}
	rows += int64(len(del))

	// Tuple rows on the schema relation.
	mg, _ := mirror.Get("g")
	tuples := make([][]uint64, 200)
	for i := range tuples {
		tuples[i] = []uint64{uint64(i) % 97, uint64(3*i) % 89}
	}
	if err := cl.InsertRows("g", tuples); err != nil {
		t.Fatal(err)
	}
	mg.InsertTupleBatch(tuples)
	rows += int64(len(tuples))
	if err := cl.DeleteRows("g", tuples[:10]); err != nil {
		t.Fatal(err)
	}
	if err := mg.DeleteTupleBatch(tuples[:10]); err != nil {
		t.Fatal(err)
	}
	rows += 10

	// FLUSH is the read-your-writes barrier: after it, Len and the
	// synopses must reflect every batch above.
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := mirror.Drain(); err != nil {
		t.Fatal(err)
	}
	ef, _ := eng.Get("f")
	if got, want := ef.Len(), mf.Len(); got != want {
		t.Fatalf("f.Len = %d after flush, mirror %d", got, want)
	}
	expectSameRelation(t, eng, mirror, "f")
	expectSameRelation(t, eng, mirror, "g")

	// Stream.Flush writes a FLUSH only while a batch is un-acked, and the
	// batches' own ACK may release it before the server counts the FLUSH;
	// so count one this test knows it sent. The server counts a FLUSH
	// before it queues the ACK that answers it.
	rawFlush(t, addr)
	st := srv.Stats()
	if st.Rows != rows {
		t.Fatalf("stats counted %d rows, sent %d", st.Rows, rows)
	}
	if st.Batches < 10 || st.Flushes < 1 || st.TotalConns < 1 || st.Errors != 0 {
		t.Fatalf("implausible stats after clean run: %+v", st)
	}

	if err := cl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The server notices the GOODBYEs asynchronously.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().Conns != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server still reports %d open conns after client close", srv.Stats().Conns)
		}
		time.Sleep(time.Millisecond)
	}
}

// rawFlush handshakes on a raw connection to addr, sends one FLUSH and
// reads frames until the ACK that answers it.
func rawFlush(t *testing.T, addr string) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	out := AppendFrame(nil, &Frame{Kind: KindHello, Proto: ProtoVersion, Window: 1})
	out = AppendFrame(out, &Frame{Kind: KindFlush})
	if _, err := nc.Write(out); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for {
		body, err := ReadFrame(nc, &buf)
		if err != nil {
			t.Fatalf("stream ended before the FLUSH was acked: %v", err)
		}
		var f Frame
		if err := DecodeFrame(body, &f); err != nil {
			t.Fatal(err)
		}
		switch f.Kind {
		case KindWelcome:
		case KindAck:
			return
		default:
			t.Fatalf("FLUSH answered by %v", f.Kind)
		}
	}
}

// TestClientSplitsAtFrameBound: a batch one value over MaxBatchVals goes
// out as two frames, and the relation holds every row.
func TestClientSplitsAtFrameBound(t *testing.T) {
	eng := newEngine(t, memOpts())
	if _, err := eng.Define("f"); err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, eng)
	cl, err := Dial(addr, Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	vals := make([]uint64, MaxBatchVals+1)
	for i := range vals {
		vals[i] = uint64(i % 4096)
	}
	if err := cl.InsertBatch("f", vals); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Batches != 2 || st.Rows != int64(len(vals)) {
		t.Fatalf("server took %d batches of %d rows in all, want 2 and %d", st.Batches, st.Rows, len(vals))
	}
	r, _ := eng.Get("f")
	if n := r.Len(); n != int64(len(vals)) {
		t.Fatalf("relation holds %d rows, want %d", n, len(vals))
	}
}

// TestMaxBatchIsOneRecord: a BATCH frame always fits one log record. A
// maximal frame — MaxBatchVals values in whole rows — at arity 1 and at
// arity 3 goes through a client into a durable engine behind EngineSink,
// and the relation's log segment reads back with NextRun as exactly one
// record holding every value.
func TestMaxBatchIsOneRecord(t *testing.T) {
	if MaxBatchVals > oplog.MaxRecordVals {
		t.Fatalf("MaxBatchVals = %d exceeds oplog.MaxRecordVals = %d", MaxBatchVals, oplog.MaxRecordVals)
	}
	for _, schema := range []engine.Schema{{}, {Attrs: []string{"a", "b", "c"}}} {
		arity := max(len(schema.Attrs), 1)
		opts := memOpts()
		opts.Dir = t.TempDir()
		eng, err := engine.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = eng.Close() })
		if _, err := eng.DefineSchema("f", schema); err != nil {
			t.Fatal(err)
		}
		srv, addr := startServer(t, eng)
		cl, err := Dial(addr, Options{Conns: 1})
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]uint64, MaxBatchVals-MaxBatchVals%arity)
		for i := range vals {
			vals[i] = uint64(i) * 0x9e3779b97f4a7c15
		}
		if arity == 1 {
			err = cl.InsertBatch("f", vals)
		} else {
			rows := make([][]uint64, len(vals)/arity)
			for i := range rows {
				rows[i] = vals[i*arity : (i+1)*arity]
			}
			err = cl.InsertRows("f", rows)
		}
		if err == nil {
			err = cl.Flush()
		}
		cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st := srv.Stats(); st.Batches != 1 {
			t.Fatalf("arity %d: server took %d frames, want 1", arity, st.Batches)
		}
		segs, err := filepath.Glob(filepath.Join(opts.Dir, "rel-*.oplog"))
		if err != nil || len(segs) != 1 {
			t.Fatalf("arity %d: log segments %v (%v), want one", arity, segs, err)
		}
		data, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		lr := oplog.NewReader(bytes.NewReader(data))
		rn, err := lr.NextRun()
		if err != nil {
			t.Fatal(err)
		}
		if rn.Del || rn.Arity != arity || !slices.Equal(sortedRows(rn.Vals, arity), sortedRows(vals, arity)) {
			t.Fatalf("arity %d: first record holds %d values at arity %d, want the frame's %d rows", arity, len(rn.Vals), rn.Arity, len(vals))
		}
		if _, err := lr.NextRun(); err != io.EOF {
			t.Fatalf("arity %d: after the first record: %v, want io.EOF", arity, err)
		}
	}
}

// sortedRows returns vals' rows of the given arity, sorted, flattened: the
// log holds a batch's rows grouped by shard, not in the frame's order.
func sortedRows(vals []uint64, arity int) []uint64 {
	if arity == 1 {
		return slices.Sorted(slices.Values(vals))
	}
	rows := make([][]uint64, len(vals)/arity)
	for i := range rows {
		rows[i] = vals[i*arity : (i+1)*arity]
	}
	slices.SortFunc(rows, slices.Compare)
	return slices.Concat(rows...)
}

func TestWireServerErrors(t *testing.T) {
	eng := newEngine(t, memOpts())
	if _, err := eng.Define("f"); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, eng)
	cl, err := Dial(addr, Options{Conns: 1, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Unknown relation: the batch is staged optimistically on the client,
	// the server answers ERROR naming the relation, and the flush barrier
	// surfaces it.
	err = cl.InsertBatch("nope", []uint64{1})
	if err == nil {
		err = cl.Flush()
	}
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("unknown relation: got %v, want *ServerError", err)
	}
	if se.Relation != "nope" {
		t.Fatalf("unknown relation: error names %q, want %q", se.Relation, "nope")
	}

	// The stream was torn down by the ERROR; the next operation redials
	// transparently and the connection works again.
	if err := cl.InsertBatch("f", []uint64{1, 2, 3}); err != nil {
		t.Fatalf("redial after server error: %v", err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatalf("flush after redial: %v", err)
	}

	// Arity mismatch: tuple rows against an arity-1 relation.
	se = nil
	err = cl.InsertRows("f", [][]uint64{{1, 2}, {3, 4}})
	if err == nil {
		err = cl.Flush()
	}
	if !errors.As(err, &se) {
		t.Fatalf("arity mismatch: got %v, want *ServerError", err)
	}
	if se.Relation != "f" {
		t.Fatalf("arity mismatch: error names %q, want %q", se.Relation, "f")
	}
}

// TestWireServerCloseUnblocksIdleHandshake pins the shutdown guarantee:
// a connection that never sends HELLO has no ack loop watching the bye
// channel, so only the handshake/Close deadlines can reap it — Close
// must still return promptly instead of wedging wg.Wait (and with it the
// daemon's whole SIGTERM path) on one idle client.
func TestWireServerCloseUnblocksIdleHandshake(t *testing.T) {
	eng := newEngine(t, memOpts())
	srv := NewServer(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().Conns == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never registered the connection")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > closeGrace+3*time.Second {
		t.Fatalf("Close took %v with an idle pre-HELLO conn; want ~%v", d, closeGrace)
	}
}

// TestWireOplogErrorSurfaces: once the filesystem dies, the delete's
// oplog append fails in the group-commit writer and goes sticky on the
// relation; the wire path must hand that error back as an ERROR frame
// naming the relation — the same semantics the HTTP ingest handler gives
// its callers — never a clean ACK for an op that is not durable.
func TestWireOplogErrorSurfaces(t *testing.T) {
	ffs := oplog.NewFaultFS(nil)
	opts := memOpts()
	opts.Dir = t.TempDir()
	opts.FS = ffs
	eng, err := engine.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close() // errors after the crash below; irrelevant here
	if _, err := eng.DefineSchema("g", engine.Schema{Attrs: []string{"a", "b"}}); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, eng)
	cl, err := Dial(addr, Options{Conns: 1, DialRetries: 1, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rows := [][]uint64{{1, 2}, {3, 4}}
	if err := cl.InsertRows("g", rows); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}

	// Kill the filesystem: the delete's group commit fails, and the
	// drain that gates its ACK reports the sticky error.
	ffs.CrashNow()
	err = cl.DeleteRows("g", rows)
	if err == nil {
		err = cl.Flush()
	}
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("failed delete surfaced as %v, want *ServerError", err)
	}
	if se.Relation != "g" {
		t.Fatalf("error names relation %q, want %q", se.Relation, "g")
	}
}

// TestWireProtoVersionMismatch speaks the raw protocol: a HELLO with a
// future version must be answered by ERROR, not silence.
func TestWireProtoVersionMismatch(t *testing.T) {
	eng := newEngine(t, memOpts())
	_, addr := startServer(t, eng)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(AppendFrame(nil, &Frame{Kind: KindHello, Proto: 99, Window: 1})); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	body, err := ReadFrame(nc, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	if err := DecodeFrame(body, &f); err != nil {
		t.Fatal(err)
	}
	if f.Kind != KindError {
		t.Fatalf("got %v, want ERROR", f.Kind)
	}
}

// TestWireSeqRegression: batch sequence numbers must be strictly
// increasing per stream; a replayed seq is a protocol error (it would
// make ack bookkeeping ambiguous).
func TestWireSeqRegression(t *testing.T) {
	eng := newEngine(t, memOpts())
	if _, err := eng.Define("f"); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, eng)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var out []byte
	out = AppendFrame(out, &Frame{Kind: KindHello, Proto: ProtoVersion, Window: 8})
	out = AppendFrame(out, &Frame{Kind: KindBatch, Seq: 5, Arity: 1, Relation: "f", Vals: []uint64{1}})
	out = AppendFrame(out, &Frame{Kind: KindBatch, Seq: 5, Arity: 1, Relation: "f", Vals: []uint64{2}})
	if _, err := nc.Write(out); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for {
		body, err := ReadFrame(nc, &buf)
		if err != nil {
			t.Fatalf("stream ended without ERROR: %v", err)
		}
		var f Frame
		if err := DecodeFrame(body, &f); err != nil {
			t.Fatal(err)
		}
		switch f.Kind {
		case KindWelcome, KindAck:
			continue
		case KindError:
			return // the replayed seq was rejected
		default:
			t.Fatalf("unexpected %v", f.Kind)
		}
	}
}

// TestWireClientReconnect restarts the server on the same address and
// expects the client to recover by itself: the outage surfaces as errors
// (never silent retries — a replayed batch would double-apply into the
// linear synopses), then the jittered redial path brings the stream back.
func TestWireClientReconnect(t *testing.T) {
	eng := newEngine(t, memOpts())
	if _, err := eng.Define("f"); err != nil {
		t.Fatal(err)
	}
	srv1 := NewServer(eng)
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln1.Addr().String()
	go func() { _ = srv1.Serve(ln1) }()

	cl, err := Dial(addr, Options{Conns: 1, RetryBackoff: time.Millisecond, DialRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.InsertBatch("f", []uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}

	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	// The outage must surface as at least one error.
	deadline := time.Now().Add(5 * time.Second)
	var sawErr bool
	for !sawErr {
		if time.Now().After(deadline) {
			t.Fatal("no error surfaced while server was down")
		}
		if err := cl.InsertBatch("f", []uint64{3}); err != nil {
			sawErr = true
		} else if err := cl.Flush(); err != nil {
			sawErr = true
		}
	}

	srv2 := NewServer(eng)
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv2.Serve(ln2) }()
	t.Cleanup(func() { _ = srv2.Close() })

	// And the client must come back without being rebuilt.
	for {
		if time.Now().After(deadline) {
			t.Fatal("client did not reconnect after server restart")
		}
		if err := cl.InsertBatch("f", []uint64{4}); err == nil {
			if err := cl.Flush(); err == nil {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitStreamEnded waits until cc's current stream has ended, so the
// next call finds the end instead of racing it.
func waitStreamEnded(t *testing.T, cc *clientConn) {
	t.Helper()
	cc.mu.Lock()
	st := cc.st
	cc.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for st.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("the client never saw its stream end")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClientReportsUnackedBatches: a server that hangs up on a batch
// without acking it must not lose that batch silently. The next call
// reports the broken stream, and the call after it redials and flushes
// cleanly.
func TestClientReportsUnackedBatches(t *testing.T) {
	addr := fakeServer(t, func(i int, nc net.Conn, _ Frame) {
		var (
			rb   []byte
			f    Frame
			last uint64
		)
		for {
			body, err := ReadFrame(nc, &rb)
			if err != nil || DecodeFrame(body, &f) != nil {
				return
			}
			if f.Kind == KindBatch {
				if i == 0 {
					return // hang up on the first stream's first batch
				}
				last = f.Seq
			}
			if _, err := nc.Write(AppendFrame(nil, &Frame{Kind: KindAck, Seq: last})); err != nil {
				return
			}
		}
	})
	cl, err := Dial(addr, Options{Conns: 1, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.InsertBatch("f", []uint64{1}); err != nil {
		t.Fatal(err)
	}
	waitStreamEnded(t, cl.conns[0])
	if err := cl.InsertBatch("f", []uint64{2}); err == nil {
		t.Fatal("the un-acked batch was lost without an error")
	}
	if err := cl.InsertBatch("f", []uint64{3}); err != nil {
		t.Fatalf("redial after the report: %v", err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatalf("flush after the redial: %v", err)
	}
}

// TestClientReportsServerError: the ERROR a real engine sends for an
// unknown relation is reported by the next call, as a *ServerError
// naming the relation, and only once.
func TestClientReportsServerError(t *testing.T) {
	eng := newEngine(t, memOpts())
	if _, err := eng.Define("f"); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, eng)
	cl, err := Dial(addr, Options{Conns: 1, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.InsertBatch("nope", []uint64{1}); err != nil {
		t.Fatal(err)
	}
	waitStreamEnded(t, cl.conns[0])
	err = cl.InsertBatch("f", []uint64{9})
	var se *ServerError
	if !errors.As(err, &se) || se.Relation != "nope" {
		t.Fatalf("next call after the ERROR: %v, want a *ServerError naming %q", err, "nope")
	}
	if err := cl.InsertBatch("f", []uint64{1, 2, 3}); err != nil {
		t.Fatalf("redial after the report: %v", err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatalf("flush after the redial: %v", err)
	}
	rel, err := eng.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if got := rel.Len(); got != 3 {
		t.Fatalf("f.Len = %d, want the 3 rows sent after the report", got)
	}
}

// TestDialHandshakeDeadline: a listener that never accepts completes
// the TCP connect in the kernel and then never answers HELLO. Dial must
// give up within DialTimeout instead of blocking forever.
func TestDialHandshakeDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		_, err := Dial(ln.Addr().String(), Options{DialRetries: 1})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Dial succeeded against a listener that never answers")
		}
	case <-time.After(DialTimeout + 3*time.Second):
		t.Fatalf("Dial still blocked after %v", DialTimeout+3*time.Second)
	}
}
