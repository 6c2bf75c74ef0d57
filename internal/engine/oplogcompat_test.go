package engine

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"amstrack/internal/oplog"
	"amstrack/internal/xrand"
)

// writeV1Record appends one pre-tuple-era oplog record (the fixed
// 13-byte kind|value|crc layout) — hand-encoded, so this test pins the
// HISTORICAL byte format rather than whatever the current writer emits.
func writeV1Record(buf *bytes.Buffer, kind byte, v uint64) {
	var rec [13]byte
	rec[0] = kind
	binary.LittleEndian.PutUint64(rec[1:], v)
	binary.LittleEndian.PutUint32(rec[9:], crc32.ChecksumIEEE(rec[:9]))
	buf.Write(rec[:])
}

// writeOpRecord appends one single-op record as logs written before batch
// records held them: version 1 for one attribute, version 2 (kind 3
// insert, 4 delete | arity u8 | values u64 LE | CRC32 of those bytes)
// for a tuple. Hand-encoded too: the writer writes only version 3.
func writeOpRecord(buf *bytes.Buffer, del bool, row ...uint64) {
	if len(row) == 1 {
		kind := byte(0)
		if del {
			kind = 1
		}
		writeV1Record(buf, kind, row[0])
		return
	}
	rec := []byte{3, byte(len(row))}
	if del {
		rec[0] = 4
	}
	for _, v := range row {
		rec = binary.LittleEndian.AppendUint64(rec, v)
	}
	buf.Write(binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(rec)))
}

// appendLog appends data to a relation's log segment file.
func appendLog(t *testing.T, path string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOplogV1CompatReplay guards the record-version bump: a log written
// by the previous, single-attribute-only engine (version-1 records
// exclusively, including a torn tail) must replay into today's
// multi-attribute-capable engine with BIT-IDENTICAL synopses and
// estimates to a fresh engine ingesting the same ops directly.
func TestOplogV1CompatReplay(t *testing.T) {
	opts := Options{SignatureWords: 64, Seed: 13, SketchS1: 32, SketchS2: 2, Shards: 2}

	var log bytes.Buffer
	var inserted []uint64
	for i := 0; i < 500; i++ {
		v := uint64(i*i%97 + 1)
		writeV1Record(&log, 0 /* insert */, v)
		inserted = append(inserted, v)
	}
	var deleted []uint64
	for i := 0; i < 60; i++ {
		writeV1Record(&log, 1 /* delete */, inserted[i])
		deleted = append(deleted, inserted[i])
	}
	writeV1Record(&log, 2 /* query */, 0) // legal in hand-built logs, a no-op
	clean := log.Len()
	log.Write([]byte{0, 1, 2, 3, 4}) // torn tail from a crash mid-append

	dir := t.TempDir()
	// Epoch 0, segment 0: the name layout of a log created by Define with
	// no checkpoint ever written.
	path := filepath.Join(dir, segFileName("legacy", 0, 0))
	if err := os.WriteFile(path, log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	dopts := opts
	dopts.Dir = dir
	recovered, err := Open(dopts)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()

	// The torn tail must have been truncated at the last clean record.
	if st, err := os.Stat(path); err != nil || st.Size() != int64(clean) {
		t.Fatalf("log size after recovery = %v (err %v), want %d", st.Size(), err, clean)
	}

	fresh, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := fresh.Define("legacy")
	if err != nil {
		t.Fatal(err)
	}
	rel.InsertBatch(inserted)
	if err := rel.DeleteBatch(deleted); err != nil {
		t.Fatal(err)
	}

	rrel, err := recovered.Get("legacy")
	if err != nil {
		t.Fatal(err)
	}
	if rrel.Arity() != 1 {
		t.Fatalf("recovered arity = %d, want 1", rrel.Arity())
	}
	if got, want := rrel.Len(), rel.Len(); got != want {
		t.Fatalf("recovered Len = %d, want %d", got, want)
	}
	if got, want := rrel.SelfJoinEstimate(), rel.SelfJoinEstimate(); got != want {
		t.Fatalf("recovered self-join estimate %v != %v", got, want)
	}
	gotExport, err := recovered.ExportRelation("legacy")
	if err != nil {
		t.Fatal(err)
	}
	wantExport, err := fresh.ExportRelation("legacy")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotExport, wantExport) {
		t.Fatal("recovered bundle bytes differ from direct ingest")
	}

	// The recovered engine is multi-attribute-capable in place: a chain
	// schema defines and estimates next to the legacy relation.
	if _, err := recovered.DefineSchema("g", Schema{
		Attrs: []string{"a", "b"}, Middle: [][2]string{{"a", "b"}}}); err != nil {
		t.Fatal(err)
	}
}

// TestReplayArityRule pins replay's one tuple-shape rule: a logged
// record whose width differs from the schema's (a log written before the
// relation was re-declared) still feeds the signature, the sketch, Rows
// and Seq, but the chain signatures see only records of the schema's
// width.
func TestReplayArityRule(t *testing.T) {
	opts := Options{SignatureWords: 64, ChainWords: 16, Seed: 13, SketchS1: 32, SketchS2: 2, Shards: 2}
	schema := Schema{Attrs: []string{"a", "b"}, EndA: []string{"a"}, EndB: []string{"b"}, Middle: [][2]string{{"a", "b"}}}
	dopts := opts
	dopts.Dir = t.TempDir()
	e, err := Open(dopts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.DefineSchema("g", schema); err != nil { // checkpoints the schema
		t.Fatal(err)
	}
	epoch := e.Epoch()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// The log tail: 2-attribute records mixed with 1- and 3-attribute
	// ones, inserts and deletes of each width.
	type op struct {
		del bool
		row []uint64
	}
	var ops []op
	for i := 0; i < 600; i++ {
		v := uint64(i*i%53 + 1)
		row := []uint64{v}
		switch i % 3 {
		case 0:
			row = append(row, v*7%19+1)
		case 2:
			row = append(row, v%5, v%7)
		}
		ops = append(ops, op{row: row})
	}
	for _, o := range ops[:90] {
		ops = append(ops, op{del: true, row: o.row})
	}
	var log bytes.Buffer
	for _, o := range ops {
		writeOpRecord(&log, o.del, o.row...)
	}
	appendLog(t, filepath.Join(dopts.Dir, segFileName("g", epoch, 0)), log.Bytes())

	// Expected: every record's primary value in a single-attribute model
	// relation, and only the 2-attribute records in a chain one.
	m := newModel(t, opts)
	all := modelDefine(t, m, "all", Schema{})
	chain := modelDefine(t, m, "chain", schema)
	for _, o := range ops {
		if o.del {
			_ = all.Delete(o.row[0])
		} else {
			all.Insert(o.row[0])
		}
		if len(o.row) != 2 {
			continue
		}
		if o.del {
			_ = chain.DeleteTuple(o.row...)
		} else {
			chain.InsertTuple(o.row...)
		}
	}

	back, err := Open(dopts)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	r, err := back.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	cut := r.Cut()
	if cut.Rows != all.Rows() || cut.Seq != all.Seq() || cut.Seq != uint64(len(ops)) {
		t.Fatalf("Rows %d Seq %d, want %d and %d", cut.Rows, cut.Seq, all.Rows(), len(ops))
	}
	if !bytes.Equal(marshalOf(t, cut.Sig), marshalOf(t, all.Signature())) {
		t.Fatal("signature does not count every record")
	}
	if !bytes.Equal(marshalOf(t, cut.Sketch), marshalOf(t, all.Sketch())) {
		t.Fatal("sketch does not count every record")
	}
	for i, s := range cut.Chain.Ends {
		if !bytes.Equal(marshalOf(t, s), marshalOf(t, chain.Ends()[i])) {
			t.Fatalf("chain end %d does not count exactly the 2-attribute records", i)
		}
	}
	for i, s := range cut.Chain.Mids {
		if !bytes.Equal(marshalOf(t, s), marshalOf(t, chain.Mids()[i])) {
			t.Fatalf("chain middle %d does not count exactly the 2-attribute records", i)
		}
	}
}

// TestMixedVersionSegmentReplay: one segment holding all three record
// versions — version-1 ops, version-2 tuples and version-3 runs, of
// widths 1, 2 and 3 and both kinds, interleaved as a log that was
// written before runs existed and then appended to — replays into a
// two-attribute relation by the arity rule, bit for bit. A live batch
// appended to the same segment after recovery survives the next reopen.
func TestMixedVersionSegmentReplay(t *testing.T) {
	opts := Options{SignatureWords: 64, ChainWords: 16, Seed: 13, SketchS1: 32, SketchS2: 2, Shards: 2}
	schema := Schema{Attrs: []string{"a", "b"}, EndA: []string{"a"}, EndB: []string{"b"}, Middle: [][2]string{{"a", "b"}}}
	dopts := opts
	dopts.Dir = t.TempDir()
	e, err := Open(dopts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.DefineSchema("g", schema); err != nil {
		t.Fatal(err)
	}
	epoch := e.Epoch()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	m := newModel(t, opts)
	all := modelDefine(t, m, "all", Schema{})
	chain := modelDefine(t, m, "chain", schema)
	feed := func(rn oplog.Run) {
		for j := 0; j < len(rn.Vals); j += rn.Arity {
			row := rn.Vals[j : j+rn.Arity]
			if rn.Del {
				_ = all.Delete(row[0])
			} else {
				all.Insert(row[0])
			}
			if rn.Arity != 2 {
				continue
			}
			if rn.Del {
				_ = chain.DeleteTuple(row...)
			} else {
				chain.InsertTuple(row...)
			}
		}
	}

	// Runs of random widths and lengths, every third one deleted again;
	// odd runs go to the log as one op record per row (versions 1 and 2),
	// even ones as batch records.
	var log bytes.Buffer
	w := oplog.NewWriter(&log)
	r := xrand.New(5)
	var runs []oplog.Run
	for i := 0; i < 30; i++ {
		a := 1 + i%3
		vals := make([]uint64, a*int(1+r.Uint64n(20)))
		for j := range vals {
			vals[j] = 1 + r.Uint64n(40)
		}
		runs = append(runs, oplog.Run{Arity: a, Vals: vals})
		if i%3 == 2 {
			runs = append(runs, oplog.Run{Del: true, Arity: a, Vals: vals})
		}
	}
	for i, rn := range runs {
		feed(rn)
		if i%2 == 0 {
			if err := w.AppendRun(rn); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		for j := 0; j < len(rn.Vals); j += rn.Arity {
			writeOpRecord(&log, rn.Del, rn.Vals[j:j+rn.Arity]...)
		}
	}
	appendLog(t, filepath.Join(dopts.Dir, segFileName("g", epoch, 0)), log.Bytes())

	check := func(e *Engine) {
		t.Helper()
		rel, err := e.Get("g")
		if err != nil {
			t.Fatal(err)
		}
		cut := rel.Cut()
		if cut.Rows != all.Rows() || cut.Seq != all.Seq() {
			t.Fatalf("Rows %d Seq %d, want %d and %d", cut.Rows, cut.Seq, all.Rows(), all.Seq())
		}
		if !bytes.Equal(marshalOf(t, cut.Sig), marshalOf(t, all.Signature())) ||
			!bytes.Equal(marshalOf(t, cut.Sketch), marshalOf(t, all.Sketch())) {
			t.Fatal("signature or sketch differs from every record's primary values")
		}
		for i, s := range cut.Chain.Ends {
			if !bytes.Equal(marshalOf(t, s), marshalOf(t, chain.Ends()[i])) {
				t.Fatalf("chain end %d differs from the 2-attribute rows", i)
			}
		}
		for i, s := range cut.Chain.Mids {
			if !bytes.Equal(marshalOf(t, s), marshalOf(t, chain.Mids()[i])) {
				t.Fatalf("chain middle %d differs from the 2-attribute rows", i)
			}
		}
	}
	back, err := Open(dopts)
	if err != nil {
		t.Fatal(err)
	}
	check(back)
	rel, err := back.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	live := [][]uint64{{3, 4}, {5, 6}, {3, 4}, {40, 1}}
	rel.InsertTupleBatch(live)
	if err := rel.DeleteTupleBatch(live[:1]); err != nil {
		t.Fatal(err)
	}
	feed(oplog.Run{Arity: 2, Vals: []uint64{3, 4, 5, 6, 3, 4, 40, 1}})
	feed(oplog.Run{Del: true, Arity: 2, Vals: []uint64{3, 4}})
	if err := back.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := Open(dopts)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	check(again)
}
