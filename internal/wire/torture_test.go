package wire

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"amstrack/internal/engine"
	"amstrack/internal/oplog"
	"amstrack/internal/xrand"
)

// The torture tests pin the protocol's one durability promise: an ACKed
// batch survives anything. A client that counted an ack may lose the
// server to a graceful shutdown or a kill -9 the next instant — the
// recovered engine must still contain every acked batch, bit-identical
// to a mirror engine fed the same prefix, and the client must learn
// about the break loudly (GOODBYE, ERROR, or a connection error), never
// by a silent hang or a silent ack.

const tortureBatch = 32 // rows per batch; recovery is audited in batch units

// durableOpts is the on-disk engine shape; the mirror uses memOpts()
// (equal Seed and dimensions, no Dir), so bundles compare byte-for-byte.
func durableOpts(dir string) engine.Options {
	o := memOpts()
	o.Dir = dir
	return o
}

// batchVals is the deterministic content of batch i — both the streaming
// client and the mirror derive it, so "which prefix survived" is fully
// determined by the recovered row count.
func batchVals(i int) []uint64 {
	rng := xrand.New(uint64(i)*0x9E3779B97F4A7C15 + 1)
	out := make([]uint64, tortureBatch)
	for j := range out {
		out[j] = rng.Uint64n(4096)
	}
	return out
}

// mirrorPrefix builds an in-memory engine holding batches 1..n of "f".
func mirrorPrefix(t *testing.T, n int) *engine.Engine {
	t.Helper()
	m := newEngine(t, memOpts())
	rel, err := m.Define("f")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		rel.InsertBatch(batchVals(i))
	}
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	return m
}

// expectPrefixRecovery checks a recovered engine against the acked
// count: the survivor must hold a whole-batch prefix at least as long as
// what was acked, and that prefix must be bit-identical to the mirror.
func expectPrefixRecovery(t *testing.T, back *engine.Engine, acked int) {
	t.Helper()
	rel, err := back.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	n := rel.Len()
	if n%tortureBatch != 0 {
		t.Fatalf("recovered %d rows — not a whole number of %d-row batches", n, tortureBatch)
	}
	got := int(n / tortureBatch)
	if got < acked {
		t.Fatalf("recovered %d batches, but %d were ACKed — an acked batch was lost", got, acked)
	}
	mirror := mirrorPrefix(t, got)
	gb, err := back.ExportRelation("f")
	if err != nil {
		t.Fatal(err)
	}
	wb, err := mirror.ExportRelation("f")
	if err != nil {
		t.Fatal(err)
	}
	// The bundle stamp's Seq must survive recovery bit-exactly — the
	// recovered engine has to report the mirror's op count. Epoch is
	// durability metadata (the recovered engine has checkpointed, the
	// in-memory mirror never does), so the byte comparison normalizes it
	// and everything else must match exactly.
	var gd, wd engine.RelationBundle
	if err := gd.UnmarshalBinary(gb); err != nil {
		t.Fatal(err)
	}
	if err := wd.UnmarshalBinary(wb); err != nil {
		t.Fatal(err)
	}
	if gd.Seq != wd.Seq {
		t.Fatalf("recovered bundle Seq = %d, mirror of %d batches has %d", gd.Seq, got, wd.Seq)
	}
	gd.Epoch = wd.Epoch
	gn, err := gd.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gn, wb) {
		t.Fatalf("recovered synopsis differs from mirror of the first %d batches", got)
	}
}

// TestWireGracefulShutdownNoLostAck streams batches while the daemon's
// shutdown sequence runs underneath: wire listener first (GOODBYE on the
// open stream), then the final checkpoint, then engine close — the PR 6
// drain path extended to open streams. Every batch the client saw acked
// must be in the recovered image.
func TestWireGracefulShutdownNoLostAck(t *testing.T) {
	dir := t.TempDir()
	eng, err := engine.Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Define("f"); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()

	cl, err := Dial(ln.Addr().String(), Options{Conns: 1, Window: 4, DialRetries: 1, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	type streamEnd struct {
		acked int
		err   error
	}
	done := make(chan streamEnd, 1)
	go func() {
		// Flush after every batch: each counted batch is individually
		// acked, so `acked` is exactly the client's durability claim.
		var e streamEnd
		for i := 1; ; i++ {
			if e.err = cl.InsertBatch("f", batchVals(i)); e.err != nil {
				break
			}
			if e.err = cl.Flush(); e.err != nil {
				break
			}
			e.acked++
		}
		done <- e
	}()

	time.Sleep(30 * time.Millisecond) // let a real pipeline build up
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	end := <-done
	if end.err == nil {
		t.Fatal("stream survived server shutdown")
	}
	var se *ServerError
	if errors.As(end.err, &se) {
		t.Fatalf("shutdown surfaced as server fault %v; want GOODBYE or a connection error", se)
	}
	if end.acked == 0 {
		t.Fatal("no batch acked before shutdown; torture window missed the stream entirely")
	}
	_ = cl.Close()

	// Daemon epilogue: final checkpoint, close, reopen.
	if _, err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := engine.Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	expectPrefixRecovery(t, back, end.acked)
}

// TestWireKillNineNoLostAck models the hard crash with the oplog fault
// filesystem: after CrashNow every byte that had reached the base
// filesystem survives and every later write fails — the kill -9 fault
// model. The crash lands between batches, so the acked count fully
// determines the surviving prefix; the batch sent after the crash must
// fail loudly (the drain's sticky oplog error, reported as ERROR naming
// the relation) and must NOT be acked.
func TestWireKillNineNoLostAck(t *testing.T) {
	dir := t.TempDir()
	ffs := oplog.NewFaultFS(nil)
	opts := durableOpts(dir)
	opts.FS = ffs
	eng, err := engine.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close() // errors after the crash; the reopen below is the real check
	if _, err := eng.Define("f"); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, eng)
	cl, err := Dial(addr, Options{Conns: 1, DialRetries: 1, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const acked = 20
	for i := 1; i <= acked; i++ {
		if err := cl.InsertBatch("f", batchVals(i)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if err := cl.Flush(); err != nil {
			t.Fatalf("flush %d: %v", i, err)
		}
	}

	ffs.CrashNow()

	// The post-crash batch must surface an error — acking it would claim
	// durability the disk never got.
	var failErr error
	for i := acked + 1; i <= acked+8 && failErr == nil; i++ {
		if failErr = cl.InsertBatch("f", batchVals(i)); failErr != nil {
			break
		}
		failErr = cl.Flush()
	}
	if failErr == nil {
		t.Fatal("batches kept acking after the filesystem died")
	}

	// Reopen from the surviving disk image with the real filesystem.
	back, err := engine.Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	expectPrefixRecovery(t, back, acked)
}
