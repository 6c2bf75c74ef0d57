package engine

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"amstrack/internal/refmodel"
	"amstrack/internal/xrand"
)

func durOpts(dir string) Options {
	return Options{SignatureWords: 128, Seed: 9, SketchS1: 128, SketchS2: 4, Shards: 2, Dir: dir}
}

// ingestPhase1/2 are the shared op sequences of the recovery tests: the
// reference model replays both to produce the uninterrupted expectation.
func ingestPhase1(e *Engine, t *testing.T) {
	t.Helper()
	f, err := e.Define("f")
	if err != nil {
		t.Fatal(err)
	}
	g, err := e.Define("g")
	if err != nil {
		t.Fatal(err)
	}
	phase1Ops(t, f, g)
}

func phase1Ops(t *testing.T, f, g relWriter) {
	t.Helper()
	r := xrand.New(4)
	for i := 0; i < 3000; i++ {
		f.Insert(r.Uint64n(80))
		g.Insert(r.Uint64n(80))
	}
	f.Insert(7)
	if err := f.Delete(7); err != nil {
		t.Fatal(err)
	}
}

func ingestPhase2(e *Engine, t *testing.T) {
	t.Helper()
	f, err := e.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	g, err := e.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	phase2Ops(t, f, g)
}

func phase2Ops(t *testing.T, f, g relWriter) {
	t.Helper()
	r := xrand.New(8)
	vs := make([]uint64, 1500)
	for i := range vs {
		vs[i] = r.Uint64n(80)
	}
	f.InsertBatch(vs)
	for _, v := range vs[:200] {
		g.Insert(v)
	}
	if err := f.DeleteBatch(vs[:100]); err != nil {
		t.Fatal(err)
	}
}

// phaseModel is the uninterrupted reference: the reference model fed
// phase 1 (and optionally phase 2) in order.
func phaseModel(t *testing.T, phase2 bool) *refmodel.Model {
	t.Helper()
	m := newModel(t, durOpts(""))
	f := modelDefine(t, m, "f", Schema{})
	g := modelDefine(t, m, "g", Schema{})
	phase1Ops(t, f, g)
	if phase2 {
		phase2Ops(t, f, g)
	}
	return m
}

func TestKillAndRecover(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	ingestPhase1(e, t)
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ingestPhase2(e, t)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	back, err := Open(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	expectEngineMatchesModel(t, back, phaseModel(t, true))
}

func TestRecoverWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	ingestPhase1(e, t)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := Open(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	expectEngineMatchesModel(t, back, phaseModel(t, false))
}

// TestTornTailRecover appends a partial record — the exact artifact of a
// crash mid-append — to one relation's log; recovery must truncate it at
// the clean boundary and report estimates bit-identical to the
// uninterrupted run.
func TestTornTailRecover(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	ingestPhase1(e, t)
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ingestPhase2(e, t)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// One checkpoint has happened, so the active log is epoch 1.
	logPath := filepath.Join(dir, relFileName("f", 1))
	before, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// 7 bytes of a 13-byte record: a torn final write.
	if _, err := lf.Write([]byte{0, 0xAB, 0xCD, 0xEF, 0x01, 0x02, 0x03}); err != nil {
		t.Fatal(err)
	}
	lf.Close()

	back, err := Open(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	expectEngineMatchesModel(t, back, phaseModel(t, true))

	// The torn bytes are gone from disk: the log is back to whole records.
	after, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("log size %d after recovery, want %d (torn tail truncated)", after.Size(), before.Size())
	}
}

// TestMidLogCorruptionFailsOpen distinguishes real corruption from a torn
// tail: a flipped byte in the middle of the log must fail recovery, not
// silently truncate thousands of good records after it.
func TestMidLogCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	ingestPhase1(e, t)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, relFileName("f", 0))
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(durOpts(dir)); err == nil {
		t.Fatal("mid-log corruption accepted")
	}
}

func TestDefineAfterCheckpointRecovered(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	ingestPhase1(e, t)
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	h, err := e.Define("h")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		h.Insert(uint64(i % 9))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := Open(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	m := phaseModel(t, false)
	hm := modelDefine(t, m, "h", Schema{})
	for i := 0; i < 500; i++ {
		hm.Insert(uint64(i % 9))
	}
	expectEngineMatchesModel(t, back, m)
}

func TestDropStaysDroppedAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	ingestPhase1(e, t)
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Drop("g"); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := Open(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if names := back.Names(); len(names) != 1 || names[0] != "f" {
		t.Fatalf("relations after drop+restart = %v, want [f]", names)
	}
}

func TestCheckpointRotatesLogs(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	f, _ := e.Define("f")
	for i := 0; i < 100; i++ {
		f.Insert(uint64(i))
	}
	// Sync is the durability barrier: a drain through the absorbers, then
	// an fsync of the log.
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	epoch0 := filepath.Join(dir, relFileName("f", 0))
	st, err := os.Stat(epoch0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 {
		t.Fatal("log empty before checkpoint")
	}
	n, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("checkpoint size = %d", n)
	}
	// Absorbed epoch-0 log deleted; fresh empty epoch-1 log active.
	if _, err := os.Stat(epoch0); !os.IsNotExist(err) {
		t.Fatalf("absorbed log still present: %v", err)
	}
	st, err = os.Stat(filepath.Join(dir, relFileName("f", 1)))
	if err != nil || st.Size() != 0 {
		t.Fatalf("epoch-1 log: %v, size %d, want empty", err, st.Size())
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointFile)); err != nil {
		t.Fatal(err)
	}
	e.Close()
}

// TestCrashBetweenCheckpointAndRotation reconstructs the on-disk state a
// kill -9 leaves when it lands after the checkpoint rename but before
// the log rotation: the new checkpoint plus the already-absorbed
// old-epoch log, ops and all. Recovery must NOT replay that log (its ops
// live inside the checkpoint) — estimates stay bit-identical to the
// uninterrupted run and the stale file is cleaned up.
func TestCrashBetweenCheckpointAndRotation(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	ingestPhase1(e, t)
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	stalePath := filepath.Join(dir, relFileName("f", 0))
	staleOps, err := os.ReadFile(stalePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(staleOps) == 0 {
		t.Fatal("no ops logged in phase 1")
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Resurrect the absorbed epoch-0 log, as if rotation never ran.
	if err := os.WriteFile(stalePath, staleOps, 0o644); err != nil {
		t.Fatal(err)
	}

	back, err := Open(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	expectEngineMatchesModel(t, back, phaseModel(t, false))
	if _, err := os.Stat(stalePath); !os.IsNotExist(err) {
		t.Fatalf("stale log not cleaned up: %v", err)
	}
}

func TestOpenGuards(t *testing.T) {
	if _, err := Open(Options{SignatureWords: 64}); err == nil {
		t.Fatal("Open without Dir accepted")
	}
	if _, err := New(Options{SignatureWords: 64, Dir: "ignored"}); err != nil {
		t.Fatal(err)
	}
	e, err := New(Options{SignatureWords: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(); err == nil {
		t.Fatal("in-memory checkpoint accepted")
	}
	// Reopen with a different family must fail loudly.
	dir := t.TempDir()
	d, err := Open(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Define("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	bad := durOpts(dir)
	bad.SignatureWords = 64
	if _, err := Open(bad); err == nil {
		t.Fatal("family mismatch accepted on reopen")
	}
}

// TestDropRedefineDoesNotResurrect: dropping a checkpointed relation and
// redefining the name must not let recovery stack the new log on top of
// the OLD checkpointed counters.
func TestDropRedefineDoesNotResurrect(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	f, _ := e.Define("f")
	for i := 0; i < 1000; i++ {
		f.Insert(uint64(i % 13))
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Drop("f"); err != nil {
		t.Fatal(err)
	}
	f2, err := e.Define("f")
	if err != nil {
		t.Fatal(err)
	}
	f2.Insert(42)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	back, err := Open(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	rel, err := back.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 {
		t.Fatalf("recovered Len = %d, want 1 (old counters resurrected)", rel.Len())
	}
	if got := rel.SelfJoinEstimate(); got != 1 {
		t.Fatalf("recovered SJ estimate = %v, want exactly 1", got)
	}
}

// TestFailedRotationPoisonsLog: if the epoch handoff of a checkpoint
// fails, no op may be acknowledged un-durably. The checkpoint forks the
// next-epoch log BEFORE the fence, so the fault aborts the checkpoint
// cleanly — no poison, ingest keeps running, and a later checkpoint
// succeeds once the fault clears, with every op recovered.
func TestFailedRotationPoisonsLog(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	f, _ := e.Define("f")
	for i := 0; i < 100; i++ {
		f.Insert(uint64(i % 7))
	}
	// Block the epoch-1 log path with a directory so the epoch handoff
	// fails while the checkpoint blob itself (same dir, different name)
	// could still succeed.
	if err := os.Mkdir(filepath.Join(dir, relFileName("f", 1)), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(); err == nil {
		t.Fatal("checkpoint with blocked epoch-1 log reported success")
	}

	// Clean abort: the fork failed before the fence, nothing was
	// committed, the relation stays healthy on epoch 0.
	if err := f.Err(); err != nil {
		t.Fatalf("aborted fenced checkpoint poisoned the log: %v", err)
	}
	f.Insert(99)
	if err := e.Sync(); err != nil {
		t.Fatalf("ingest after aborted checkpoint: %v", err)
	}
	if err := os.Remove(filepath.Join(dir, relFileName("f", 1))); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after fault cleared: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := Open(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	rel, err := back.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 101 {
		t.Fatalf("recovered Len = %d, want 101", rel.Len())
	}
}

func TestRelFileNameRoundTrip(t *testing.T) {
	for _, name := range []string{"f", "orders", "weird/../name", "säle", "a b"} {
		for _, epoch := range []uint64{0, 7, 1 << 40} {
			for _, seq := range []int{0, 1, 42} {
				got, gotEpoch, gotSeq, ok := relNameFromFile(segFileName(name, epoch, seq))
				if !ok || got != name || gotEpoch != epoch || gotSeq != seq {
					t.Fatalf("round trip of %q@%d s%d = %q@%d s%d, %v",
						name, epoch, seq, got, gotEpoch, gotSeq, ok)
				}
			}
		}
	}
	// Segment 0 keeps the historical single-file name.
	if relFileName("f", 3) != segFileName("f", 3, 0) {
		t.Fatal("segment 0 renamed; pre-segment logs would not recover")
	}
	for _, file := range []string{"checkpoint.blob", "rel-.oplog", "rel-zz-e1.oplog",
		"rel-66.oplog", "rel-66-ex.oplog", "rel--e1.oplog", "rel-66-e1-s0.oplog",
		"rel-66-e1-sx.oplog", "rel-66-e1-s-2.oplog", "other"} {
		if _, _, _, ok := relNameFromFile(file); ok {
			t.Fatalf("foreign file %q decoded as relation", file)
		}
	}
}

// TestDrainLeavesNoRecordBuffered pins the flush every acknowledgement
// relies on: a barrier pushes the log writer's buffered records to the
// OS. Each batch is a record far under the writer's 4 KiB buffer and the
// single inserts stay staged until the barrier, so no row reaches the
// segment file on its own; after Drain, with neither Sync nor Close, the
// file must hold every row.
func TestDrainLeavesNoRecordBuffered(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	r, err := e.Define("f")
	if err != nil {
		t.Fatal(err)
	}
	var want []uint64
	for i := uint64(0); i < 8; i++ {
		batch := make([]uint64, 16) // one 142-byte record
		for j := range batch {
			batch[j] = 16*i + uint64(j)
		}
		r.InsertBatch(batch)
		want = append(want, batch...)
	}
	for v := uint64(1000); v < 1003; v++ {
		r.Insert(v)
		want = append(want, v)
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, relFileName("f", 0)))
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for _, rn := range logRecords(t, "segment after Drain", data) {
		got = append(got, rn.Vals...)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("segment after Drain holds %d rows %v, want the %d drained", len(got), got, len(want))
	}
}
