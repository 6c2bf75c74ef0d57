package main

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"amstrack"
	"amstrack/internal/oplog"
)

func writeValues(t *testing.T, path string, vals []string) {
	t.Helper()
	content := ""
	for _, v := range vals {
		content += v + "\n"
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLoadParsesValuesAndComments(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.txt")
	writeValues(t, path, []string{"# header", "5", "", "  7 "})
	ex := amstrack.NewExact()
	if err := load(path, ex); err != nil {
		t.Fatal(err)
	}
	if ex.Len() != 2 {
		t.Fatalf("loaded %d values, want 2", ex.Len())
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.txt")
	writeValues(t, path, []string{"5", "xyz"})
	if err := load(path, amstrack.NewExact()); err == nil {
		t.Fatal("garbage line accepted")
	}
	if err := load("/nonexistent.txt", amstrack.NewExact()); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	f, g := filepath.Join(dir, "f.txt"), filepath.Join(dir, "g.txt")
	writeValues(t, f, []string{"1", "1", "2", "3"})
	writeValues(t, g, []string{"1", "2", "2"})
	if err := run(64, 42, f, g); err != nil {
		t.Fatal(err)
	}
	if err := run(0, 42, f, g); err == nil {
		t.Error("k=0 accepted")
	}
	if err := run(64, 42, "/missing.txt", g); err == nil {
		t.Error("missing F accepted")
	}
	if err := run(64, 42, f, "/missing.txt"); err == nil {
		t.Error("missing G accepted")
	}
}

// writeOplog writes runs as a log through the oplog writer: one
// version-3 record each.
func writeOplog(t *testing.T, path string, runs ...oplog.Run) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := oplog.NewWriter(f)
	for _, rn := range runs {
		if err := w.AppendRun(rn); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeV1Oplog hand-encodes a log of version-1 records, the layout of
// logs written before batch records existed: kind (0 insert, 1 delete)
// | value u64 LE | CRC32 of those 9 bytes.
func writeV1Oplog(t *testing.T, path string, kind byte, vals ...uint64) {
	t.Helper()
	var data []byte
	for _, v := range vals {
		rec := binary.LittleEndian.AppendUint64([]byte{kind}, v)
		data = binary.LittleEndian.AppendUint32(append(data, rec...), crc32.ChecksumIEEE(rec))
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRunOplogEndToEnd(t *testing.T) {
	dir := t.TempDir()
	fp, gp := filepath.Join(dir, "f.oplog"), filepath.Join(dir, "g.oplog")
	// F inserts 1,1,2,3 then deletes one 1, as batch records; G inserts
	// 1,2,2 as version-1 records.
	writeOplog(t, fp,
		oplog.Run{Arity: 1, Vals: []uint64{1, 1, 2, 3}},
		oplog.Run{Del: true, Arity: 1, Vals: []uint64{1}})
	writeV1Oplog(t, gp, 0, 1, 2, 2)
	if err := runOplog(64, 42, fp, gp); err != nil {
		t.Fatal(err)
	}
	if err := runOplog(0, 42, fp, gp); err == nil {
		t.Error("k=0 accepted")
	}
	if err := runOplog(64, 42, "/missing.oplog", gp); err == nil {
		t.Error("missing F log accepted")
	}

	// A torn tail is tolerated (warn + ignore), like engine recovery.
	for _, p := range []string{fp, gp} {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, append(raw, 0x00, 0x01, 0x02), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := runOplog(64, 42, fp, gp); err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}

	// A delete with no matching insert is invalid input, not a torn tail.
	writeOplog(t, fp, oplog.Run{Del: true, Arity: 1, Vals: []uint64{9}})
	if err := runOplog(64, 42, fp, gp); err == nil {
		t.Error("invalid delete accepted")
	}
	writeV1Oplog(t, fp, 1, 9)
	if err := runOplog(64, 42, fp, gp); err == nil {
		t.Error("invalid version-1 delete accepted")
	}
}

// TestReplayLogMatchesEngineRecovery pins the estimator equivalence: a
// log replayed via joinest — an arity-2 tuple record, read by its
// primary attribute, then a delete record — produces the same signature
// state as direct engine ingest of the same primary values.
func TestReplayLogMatchesEngineRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.oplog")
	var ins, tuples, dels []uint64
	for i := 0; i < 500; i++ {
		ins = append(ins, uint64(i%37))
		tuples = append(tuples, uint64(i%37), uint64(i))
	}
	for i := 0; i < 100; i++ {
		dels = append(dels, uint64(i%37))
	}
	writeOplog(t, path,
		oplog.Run{Arity: 2, Vals: tuples},
		oplog.Run{Del: true, Arity: 1, Vals: dels})

	eng, err := amstrack.NewEngine(amstrack.EngineOptions{SignatureWords: 64, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := eng.Define("R")
	if err != nil {
		t.Fatal(err)
	}
	ex := amstrack.NewExact()
	applied, err := replayLog(path, rel, ex)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 600 {
		t.Fatalf("applied = %d, want 600", applied)
	}

	ref, err := amstrack.NewEngine(amstrack.EngineOptions{SignatureWords: 64, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	refRel, _ := ref.Define("R")
	refRel.InsertBatch(ins)
	if err := refRel.DeleteBatch(dels); err != nil {
		t.Fatal(err)
	}
	if rel.SelfJoinEstimate() != refRel.SelfJoinEstimate() {
		t.Fatal("replayed state differs from direct ingest")
	}
	if rel.Len() != refRel.Len() || ex.Len() != rel.Len() {
		t.Fatalf("lengths diverge: rel=%d ref=%d exact=%d", rel.Len(), refRel.Len(), ex.Len())
	}
}
