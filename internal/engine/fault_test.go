package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"amstrack/internal/exact"
	"amstrack/internal/oplog"
	"amstrack/internal/refmodel"
	"amstrack/internal/xrand"
)

// faultOpts is durOpts plus an injected fault filesystem and segment
// rolling (the torture tests exercise multi-segment recovery).
func faultOpts(dir string, ffs *oplog.FaultFS) Options {
	opts := durOpts(dir)
	opts.FS = ffs
	opts.SegmentOps = 64
	return opts
}

// keepFS is a passthrough filesystem that keeps the last contents of
// every file it removes, so a torture test can reconstruct every op that
// ever reached a log — segments compacted away included.
type keepFS struct {
	oplog.FS
	mu      sync.Mutex
	removed map[string][]byte
}

func newKeepFS() *keepFS { return &keepFS{FS: oplog.OSFS, removed: map[string][]byte{}} }

func (k *keepFS) Remove(name string) error {
	if data, err := k.FS.ReadFile(name); err == nil {
		k.mu.Lock()
		k.removed[name] = data
		k.mu.Unlock()
	}
	return k.FS.Remove(name)
}

// loggedModel feeds the reference model relation "f" with every op
// record of every log segment of dir — the files still on disk plus the
// ones kfs saw removed — cut at a torn tail. That is exactly the op
// multiset recovery owes: the checkpoint covers the segments it retired,
// replay the rest.
func loggedModel(t *testing.T, dir string, kfs *keepFS) *refmodel.Model {
	t.Helper()
	m := newModel(t, durOpts(""))
	f := modelDefine(t, m, "f", Schema{})
	segs := map[string][]byte{}
	for path, data := range kfs.removed {
		segs[path] = data
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		path := filepath.Join(dir, ent.Name())
		if segs[path], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	for path, data := range segs {
		name, _, _, ok := relNameFromFile(filepath.Base(path))
		if !ok {
			continue
		}
		if name != "f" {
			t.Fatalf("unexpected relation log %s", path)
		}
		feedLog(t, f, path, data)
	}
	return m
}

// feedLog feeds f the primary value of every row of the whole records in
// one log segment's bytes, in log order, stopping at a torn tail.
func feedLog(t *testing.T, f relWriter, path string, data []byte) {
	t.Helper()
	for _, rn := range logRecords(t, path, data) {
		for j := 0; j < len(rn.Vals); j += rn.Arity {
			if rn.Del {
				_ = f.Delete(rn.Vals[j])
			} else {
				f.Insert(rn.Vals[j])
			}
		}
	}
}

// logRecords reads the whole records of one log segment's bytes, each
// copied out of the reader's scratch, stopping at a torn tail.
func logRecords(t *testing.T, path string, data []byte) []oplog.Run {
	t.Helper()
	var runs []oplog.Run
	lr := oplog.NewReader(bytes.NewReader(data))
	for {
		rn, err := lr.NextRun()
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			return runs
		}
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		rn.Vals = append([]uint64(nil), rn.Vals...)
		runs = append(runs, rn)
	}
}

// recordEnds returns the offset just past each whole record of a log
// segment, and the rows those records hold.
func recordEnds(t *testing.T, data []byte) (ends []int64, rows int64) {
	t.Helper()
	lr := oplog.NewReader(bytes.NewReader(data))
	for {
		_, err := lr.NextRun()
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			return ends, lr.Count()
		}
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, lr.Offset())
	}
}

// segment is one log segment file of a relation: its path and bytes.
type segment struct {
	path string
	data []byte
}

// relSegments reads the named relation's log segments in dir, in
// sequence order (one epoch: no checkpoint has forked the log).
func relSegments(t *testing.T, dir, name string) []segment {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []segment
	for _, ent := range entries {
		rel, _, seq, ok := relNameFromFile(ent.Name())
		if !ok || rel != name {
			continue
		}
		path := filepath.Join(dir, ent.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for len(segs) <= seq {
			segs = append(segs, segment{})
		}
		segs[seq] = segment{path, data}
	}
	return segs
}

// readDir snapshots every file of dir by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, ent := range entries {
		if files[ent.Name()], err = os.ReadFile(filepath.Join(dir, ent.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// writeDir writes a readDir snapshot into dir.
func writeDir(t *testing.T, dir string, files map[string][]byte) {
	t.Helper()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// segmentedLog writes one relation "f" across two 64-row segments — a
// 150-row insert batch, one record that overfills segment 0, then a
// delete batch and two small insert batches in segment 1, so both record
// kinds appear and the last segment holds several records — and returns
// the closed engine's directory.
func segmentedLog(t *testing.T) (dir string, opts Options) {
	t.Helper()
	dir = t.TempDir()
	opts = durOpts(dir)
	opts.SegmentOps = 64
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := e.Define("f")
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(21)
	vs := make([]uint64, 150)
	for i := range vs {
		vs[i] = r.Uint64n(80)
	}
	f.InsertBatch(vs)
	if err := f.DeleteBatch(vs[:40]); err != nil {
		t.Fatal(err)
	}
	f.InsertBatch(vs[:16])
	f.InsertBatch(vs[16:24])
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, opts
}

// TestFsyncFailureSurfaces: a failing fsync must error on Sync and
// Checkpoint, never report durability it does not have. The checkpoint
// hits the failure after the epoch fence, which poisons the logs — and a
// restart recovers every op that reached the OS.
func TestFsyncFailureSurfaces(t *testing.T) {
	dir := t.TempDir()
	ffs := oplog.NewFaultFS(nil)
	e, err := Open(faultOpts(dir, ffs))
	if err != nil {
		t.Fatal(err)
	}
	f, err := e.Define("f")
	if err != nil {
		t.Fatal(err)
	}
	// 60 rows leave segment 0 below its 64-row roll, so the 10 after
	// them append to it: a roll, whose fsync would fail first, would keep
	// them from the OS.
	for i := 0; i < 60; i++ {
		f.Insert(uint64(i % 11))
	}
	if err := e.Sync(); err != nil {
		t.Fatalf("healthy Sync: %v", err)
	}
	boom := errors.New("fsync: device on fire")
	ffs.FailSync(boom)
	for i := 0; i < 10; i++ {
		f.Insert(uint64(i))
	}
	if err := e.Sync(); err == nil {
		t.Fatal("Sync with failing fsync reported success")
	}
	if _, err := e.Checkpoint(); err == nil {
		t.Fatal("Checkpoint with failing fsync reported success")
	}
	ffs.FailSync(nil)
	// The failure hit after the epoch fence: the logs must be poisoned
	// (ops since the fence may not be durable) and stay poisoned.
	if f.Err() == nil {
		t.Fatal("post-fence fsync failure did not poison the log")
	}
	_ = e.Close()
	// Every op was OS-owned (flushed) before the process "died", so the
	// restart recovers all 70.
	back, err := Open(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	rel, err := back.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if n := rel.Len(); n != 70 {
		t.Fatalf("recovered Len = %d, want 70", n)
	}
}

// TestTornWriteRecovery: an ENOSPC that tears a write at byte
// granularity must surface as a sticky error, and recovery must cut the
// log back to the last whole record — exactly the rows of the whole
// records before the tear survive.
func TestTornWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	ffs := oplog.NewFaultFS(nil)
	opts := durOpts(dir)
	opts.FS = ffs
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := e.Define("f")
	if err != nil {
		t.Fatal(err)
	}
	// Every record the engine writes is 14 bytes of framing plus 8 per
	// value, an even length, so an odd budget ends inside a record. The
	// 300 inserts log a full 256-row staged run as a 2,062-byte record,
	// then the 44 rows the drain sends on as a 366-byte one; the budget
	// ends inside the second.
	const budget = 2245
	ffs.LimitWriteBytes(budget)
	for i := 0; i < 300; i++ {
		f.Insert(uint64(i % 50))
	}
	if err := f.Drain(); err == nil {
		t.Fatal("no sticky error after the disk filled")
	}
	if !errors.Is(f.Err(), oplog.ErrNoSpace) {
		t.Fatalf("sticky error = %v, want ErrNoSpace", f.Err())
	}
	_ = e.Close()

	logPath := filepath.Join(dir, relFileName("f", 0))
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != budget {
		t.Fatalf("log holds %d bytes, want the %d-byte budget", len(data), budget)
	}
	ends, whole := recordEnds(t, data)
	if len(ends) == 0 || ends[len(ends)-1] == budget || whole >= 300 {
		t.Fatalf("the tear left %d whole records (%d rows): want a torn record after at least one", len(ends), whole)
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
	if n := rel.Len(); n != whole {
		t.Fatalf("recovered Len = %d, want %d (the rows of the whole records before the tear)", n, whole)
	}
	if st, err := os.Stat(logPath); err != nil || st.Size() != ends[len(ends)-1] {
		t.Fatalf("log after recovery: %v, %v; want %d bytes (cut at the last whole record)", st, err, ends[len(ends)-1])
	}
}

// TestTornBatchRecordSweep tears the last segment at every byte offset
// inside its final record — header, values and trailer. Recovery must
// keep exactly the rows of the records before it, bit for bit what the
// reference model holds when fed them, and cut the file back to their
// end.
func TestTornBatchRecordSweep(t *testing.T) {
	src, opts := segmentedLog(t)
	segs := relSegments(t, src, "f")
	if len(segs) < 2 {
		t.Fatalf("%d segments, want several", len(segs))
	}
	last := segs[len(segs)-1]
	ends, _ := recordEnds(t, last.data)
	if len(ends) == 0 || ends[len(ends)-1] != int64(len(last.data)) {
		t.Fatalf("last segment ends at %v, not on a record boundary of its %d bytes", ends, len(last.data))
	}
	start, end := int64(0), ends[len(ends)-1]
	if len(ends) > 1 {
		start = ends[len(ends)-2]
	}
	m := newModel(t, durOpts(""))
	mf := modelDefine(t, m, "f", Schema{})
	for _, sg := range segs[:len(segs)-1] {
		feedLog(t, mf, sg.path, sg.data)
	}
	feedLog(t, mf, last.path, last.data[:start])

	files := readDir(t, src)
	base := filepath.Base(last.path)
	t.Logf("tearing %s's final record at each of %d offsets in (%d, %d)", base, end-start-1, start, end)
	for cut := start + 1; cut < end; cut++ {
		dir := filepath.Join(t.TempDir(), "d")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		writeDir(t, dir, files)
		path := filepath.Join(dir, base)
		if err := os.Truncate(path, cut); err != nil {
			t.Fatal(err)
		}
		o := opts
		o.Dir = dir
		back, err := Open(o)
		if err != nil {
			t.Fatalf("cut at %d of [%d, %d): %v", cut, start, end, err)
		}
		expectEngineMatchesModel(t, back, m)
		if st, err := os.Stat(path); err != nil || st.Size() != start {
			t.Fatalf("cut at %d: last segment after recovery %v, %v; want %d bytes", cut, st, err, start)
		}
		if err := back.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTornBatchAllOrNothing writes a drained 100-row batch, then a
// 512-row batch spread over 4 shards, and tears the log at every byte
// offset inside the second batch. A batch is logged whole, so no tear may
// keep part of it: recovery must hold exactly the first batch, bit for
// bit what the reference model holds when fed it alone, and cut the log
// back to that batch's end.
func TestTornBatchAllOrNothing(t *testing.T) {
	opts := durOpts("")
	opts.Shards = 4
	mem, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	probe, err := mem.Define("f")
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(33)
	first, second := make([]uint64, 100), make([]uint64, 512)
	for i := range first {
		first[i] = r.Uint64n(200)
	}
	shards := map[uint64]bool{}
	for i := range second {
		second[i] = r.Uint64n(200)
		shards[probe.shardOf(second[i])] = true
	}
	if len(shards) != 4 {
		t.Fatalf("the second batch reaches %d of 4 shards", len(shards))
	}
	tearBatch(t, opts, Schema{}, first, second, everyOffset)
}

// TestTornLargeBatchAllOrNothing tears the log inside a batch of 65,536
// values, a router sub-batch at its largest: at arity 1, and at arity 3
// with 65,535 values (21,845 rows). The batch is one record, so no tear
// may keep part of it. The tears fall at every 4,096-byte step through
// the batch, and at every byte within 32 of each offset where a writer
// that capped records at 4,096 rows ended one.
func TestTornLargeBatchAllOrNothing(t *testing.T) {
	for _, tc := range []struct {
		schema Schema
		vals   int
	}{
		{Schema{}, 65536},
		{Schema{Attrs: []string{"a", "b", "c"}}, 65535},
	} {
		arity := max(len(tc.schema.Attrs), 1)
		t.Run(fmt.Sprintf("arity-%d", arity), func(t *testing.T) {
			opts := durOpts("")
			opts.Shards = 4
			r := xrand.New(uint64(arity))
			first, second := make([]uint64, 300*arity), make([]uint64, tc.vals)
			for i := range first {
				first[i] = r.Uint64n(500)
			}
			for i := range second {
				second[i] = r.Uint64n(500)
			}
			oldRecord := int64(14 + 8*4096*arity) // a full record at the old cap
			tearBatch(t, opts, tc.schema, first, second, func(start, end int64) []int64 {
				var cuts []int64
				for cut := start + 4096; cut < end; cut += 4096 {
					cuts = append(cuts, cut)
				}
				for at := start + oldRecord; at < end; at += oldRecord {
					for cut := at - 32; cut <= at+32; cut++ {
						cuts = append(cuts, cut)
					}
				}
				return cuts
			})
		})
	}
}

// TestTornBatchAtRoll logs 900 rows into a segment that rolls at 1,000,
// then a 512-row batch. The segment rolls only between records, so the
// batch is logged whole in the current segment, and a tear at any byte
// of it keeps none of it.
func TestTornBatchAtRoll(t *testing.T) {
	opts := durOpts("")
	opts.Shards = 4
	opts.SegmentOps = 1000
	r := xrand.New(35)
	first, second := make([]uint64, 900), make([]uint64, 512)
	for i := range first {
		first[i] = r.Uint64n(300)
	}
	for i := range second {
		second[i] = r.Uint64n(300)
	}
	tearBatch(t, opts, Schema{}, first, second, everyOffset)
}

// everyOffset cuts at every byte strictly inside [start, end).
func everyOffset(start, end int64) []int64 {
	cuts := make([]int64, 0, end-start-1)
	for cut := start + 1; cut < end; cut++ {
		cuts = append(cuts, cut)
	}
	return cuts
}

// tearBatch ingests first as one drained batch of relation "f" (schema s)
// into a durable engine of opts, then second, and requires second to be
// one record in the segment first ended: the last one, with no roll
// between them. It then tears that segment at each offset cuts returns
// for second's [start, end) bytes. Every tear must recover exactly first,
// bit for bit what the reference model holds when fed first alone, and
// cut the segment back to start; the untorn log recovers both batches.
func tearBatch(t *testing.T, opts Options, s Schema, first, second []uint64, cuts func(start, end int64) []int64) {
	t.Helper()
	src := t.TempDir()
	opts.Dir = src
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := e.DefineSchema("f", s)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.IngestRun(false, first); err != nil {
		t.Fatal(err)
	}
	if err := f.Drain(); err != nil {
		t.Fatal(err)
	}
	segs := relSegments(t, src, "f")
	last := segs[len(segs)-1]
	start := int64(len(last.data))
	if err := f.IngestRun(false, second); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	after := relSegments(t, src, "f")
	data := after[len(after)-1].data
	end := int64(len(data))
	ends, _ := recordEnds(t, data)
	if len(after) != len(segs) || len(ends) < 2 || ends[len(ends)-2] != start || ends[len(ends)-1] != end {
		t.Fatalf("the batch of %d values after byte %d of segment %d reads as records ending at %v of %d segments, want one record ending at %d",
			len(second), start, len(segs)-1, ends, len(after), end)
	}
	feed := func(mf *refmodel.Relation, vals []uint64) {
		a := max(len(s.Attrs), 1)
		for j := 0; j < len(vals); j += a {
			mf.InsertTuple(vals[j : j+a]...)
		}
	}
	none, all := newModel(t, durOpts("")), newModel(t, durOpts(""))
	feed(modelDefine(t, none, "f", s), first)
	mf := modelDefine(t, all, "f", s)
	feed(mf, first)
	feed(mf, second)

	files := readDir(t, src)
	dir := t.TempDir()
	writeDir(t, dir, files)
	o := opts
	o.Dir = dir
	path := filepath.Join(dir, filepath.Base(last.path))
	open := func(cut int64, m *refmodel.Model) {
		t.Helper()
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		back, err := Open(o)
		if err != nil {
			t.Fatalf("cut at %d of (%d, %d): %v", cut, start, end, err)
		}
		expectEngineMatchesModel(t, back, m)
		if err := back.Close(); err != nil {
			t.Fatal(err)
		}
	}
	open(end, all)
	list := cuts(start, end)
	t.Logf("tearing the batch at %d offsets in (%d, %d)", len(list), start, end)
	for _, cut := range list {
		open(cut, none)
		if st, err := os.Stat(path); err != nil || st.Size() != start {
			t.Fatalf("cut at %d: log after recovery %v, %v; want %d bytes", cut, st, err, start)
		}
	}
}

// TestDamagedRowCountFailsOpen damages a batch record's row count, once
// in a sealed segment and once in the last segment with a whole record
// after it. The count sits under the header's own checksum, so Open must
// fail with ErrCorrupt and truncate nothing: unchecked, a count that runs
// past the end of the last segment would read as a torn tail and cut the
// whole record behind it.
func TestDamagedRowCountFailsOpen(t *testing.T) {
	src, opts := segmentedLog(t)
	segs := relSegments(t, src, "f")
	if len(segs) < 2 {
		t.Fatalf("%d segments, want several", len(segs))
	}
	last := segs[len(segs)-1]
	if ends, _ := recordEnds(t, last.data); len(ends) < 2 {
		t.Fatalf("last segment holds %d records, want a record after the damaged one", len(ends))
	}
	files := readDir(t, src)
	for _, tc := range []struct {
		name string
		seg  segment
	}{{"sealed", segs[0]}, {"last", last}} {
		for _, delta := range []uint32{1, 1000} {
			dir := filepath.Join(t.TempDir(), "d")
			if err := os.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			damaged := map[string][]byte{}
			for name, data := range files {
				damaged[name] = data
			}
			base := filepath.Base(tc.seg.path)
			data := append([]byte(nil), files[base]...)
			// The first record's row count: bytes 2–5, after kind and arity.
			binary.LittleEndian.PutUint32(data[2:], binary.LittleEndian.Uint32(data[2:])+delta)
			damaged[base] = data
			writeDir(t, dir, damaged)
			o := opts
			o.Dir = dir
			if e, err := Open(o); !errors.Is(err, oplog.ErrCorrupt) {
				if err == nil {
					e.Close()
				}
				t.Fatalf("%s segment, count +%d: Open = %v, want ErrCorrupt", tc.name, delta, err)
			}
			after := readDir(t, dir)
			if len(after) != len(damaged) {
				t.Fatalf("%s segment, count +%d: %d files after Open, want %d", tc.name, delta, len(after), len(damaged))
			}
			for name, data := range damaged {
				if !bytes.Equal(after[name], data) {
					t.Fatalf("%s segment, count +%d: Open changed %s (%d → %d bytes)", tc.name, delta, name, len(data), len(after[name]))
				}
			}
		}
	}
}

// crashPoints is the named crash-point matrix of the checkpoint commit
// protocol (see writeFileAtomic and the compaction loops).
var crashPoints = []string{
	"ckpt-pre-fsync",
	"ckpt-post-fsync-pre-rename",
	"ckpt-post-rename-pre-unlink",
	"compact-mid",
}

// TestCrashPointMatrix kills the engine at every named crash point of a
// checkpoint and asserts recovery is bit-identical to the reference
// model fed the same op stream: everything was fsynced before
// the doomed checkpoint, so whether it died before or after the rename
// commit, no op may be lost or double-applied.
func TestCrashPointMatrix(t *testing.T) {
	for _, point := range crashPoints {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			ffs := oplog.NewFaultFS(nil)
			e, err := Open(faultOpts(dir, ffs))
			if err != nil {
				t.Fatal(err)
			}
			ingestPhase1(e, t)
			if _, err := e.Checkpoint(); err != nil {
				t.Fatalf("baseline checkpoint: %v", err)
			}
			ingestPhase2(e, t)
			if err := e.Sync(); err != nil {
				t.Fatal(err)
			}
			ffs.CrashAt(point, 1)
			if _, err := e.Checkpoint(); err == nil {
				t.Fatalf("checkpoint survived a crash at %s", point)
			}
			if !ffs.Crashed() {
				t.Fatalf("crash point %s never fired", point)
			}
			_ = e.Close()

			back, err := Open(durOpts(dir))
			if err != nil {
				t.Fatalf("recovery after crash at %s: %v", point, err)
			}
			defer back.Close()
			expectEngineMatchesModel(t, back, phaseModel(t, true))
		})
	}
}

// TestTortureConcurrentCrash is the torture loop: ingest runs WHILE the
// checkpoint crashes at each named point. Ops synced before the crash
// must all survive; ops racing the crash may be lost (they were never
// acknowledged durable) but never corrupt the image. The recovered
// relation must match, byte for byte, the reference model fed every op
// record that reached a log segment before the crash — whether the
// recovered checkpoint absorbed its segment or replay re-read it.
func TestTortureConcurrentCrash(t *testing.T) {
	for round, point := range crashPoints {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			kfs := newKeepFS()
			ffs := oplog.NewFaultFS(kfs)
			opts := faultOpts(dir, ffs)
			opts.SegmentOps = 32
			e, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			f, err := e.Define("f")
			if err != nil {
				t.Fatal(err)
			}
			const pre, racing = 400, 400
			synced := exact.NewHistogram()
			rng := xrand.New(0xBEEF + uint64(round))
			for i := 0; i < pre; i++ {
				v := rng.Uint64n(64)
				f.Insert(v)
				synced.Insert(v)
			}
			if err := e.Sync(); err != nil {
				t.Fatal(err)
			}
			ffs.CrashAt(point, 1)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := xrand.New(0xD00D + uint64(round))
				for i := 0; i < racing; i++ {
					f.Insert(r.Uint64n(64))
				}
			}()
			if _, err := e.Checkpoint(); err == nil {
				t.Fatalf("checkpoint survived a crash at %s", point)
			}
			wg.Wait()
			_ = e.Close()

			// The model reads the disk image before recovery rewrites it.
			m := loggedModel(t, dir, kfs)
			logged := m.Relation("f").Histogram()
			synced.Each(func(v uint64, n int64) {
				if got := logged.Frequency(v); got < n {
					t.Fatalf("synced value %d: %d logged, %d synced before the crash", v, got, n)
				}
			})
			back, err := Open(durOpts(dir))
			if err != nil {
				t.Fatalf("recovery after crash at %s: %v", point, err)
			}
			defer back.Close()
			expectEngineMatchesModel(t, back, m)
			rel, err := back.Get("f")
			if err != nil {
				t.Fatal(err)
			}
			if n := rel.Len(); n < pre || n > pre+racing {
				t.Fatalf("recovered Len = %d, want within [%d, %d] (synced ops kept, racing ops at most lost)",
					n, pre, pre+racing)
			}
		})
	}
}

// TestCheckpointerSurvivesCrashedFS: after an injected death the
// background checkpointer keeps attempting (and failing) checkpoints
// without wedging, and Close still returns. Regression guard for the
// stop path racing a dead filesystem.
func TestCheckpointerSurvivesCrashedFS(t *testing.T) {
	dir := t.TempDir()
	ffs := oplog.NewFaultFS(nil)
	opts := faultOpts(dir, ffs)
	opts.CheckpointInterval = 5 * time.Millisecond
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := e.Define("f")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		f.Insert(uint64(i))
	}
	ffs.CrashNow()
	time.Sleep(30 * time.Millisecond) // a few doomed checkpointer ticks
	// The only assertion is liveness: Close must stop the checkpointer
	// and return even though every filesystem call now fails (a wedge
	// here would time the whole test binary out).
	_ = e.Close()
}
