package oplog

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"amstrack/internal/exact"
	"amstrack/internal/stream"
)

func TestRoundTrip(t *testing.T) {
	ops := []stream.Op{
		{Kind: stream.Insert, Value: 42},
		{Kind: stream.Delete, Value: 42},
		{Kind: stream.Query},
		{Kind: stream.Insert, Value: 1 << 60},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.AppendAll(ops); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 4 {
		t.Fatalf("Count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("read %d ops, want %d", len(got), len(ops))
	}
	for i := range ops {
		if !got[i].Equal(ops[i]) {
			t.Fatalf("op %d = %+v, want %+v", i, got[i], ops[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		ops := make([]stream.Op, len(raw))
		for i, x := range raw {
			ops[i] = stream.Op{Kind: stream.OpKind(x % 3), Value: uint64(x)}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.AppendAll(ops); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got, err := ReadAll(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(ops) {
			return false
		}
		for i := range ops {
			if !got[i].Equal(ops[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendRejectsInvalidKind(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	if err := w.Append(stream.Op{Kind: stream.OpKind(9)}); err == nil {
		t.Fatal("invalid kind accepted")
	}
}

func TestTornTailDetected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.Append(stream.Op{Kind: stream.Insert, Value: 7})
	_ = w.Append(stream.Op{Kind: stream.Insert, Value: 8})
	_ = w.Flush()
	torn := buf.Bytes()[:buf.Len()-5] // cut into the second record
	r := NewReader(bytes.NewReader(torn))
	if _, err := r.Next(); err != nil {
		t.Fatalf("first record should read cleanly: %v", err)
	}
	if _, err := r.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn record error = %v, want ErrUnexpectedEOF", err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.Append(stream.Op{Kind: stream.Insert, Value: 7})
	_ = w.Flush()
	data := buf.Bytes()
	data[3] ^= 0xff
	_, err := NewReader(bytes.NewReader(data)).Next()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corruption error = %v, want ErrCorrupt", err)
	}
}

func TestInvalidKindOnDiskDetected(t *testing.T) {
	// Forge a record with kind 7 and a VALID checksum: the reader must
	// still reject it.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.Append(stream.Op{Kind: stream.Insert, Value: 7})
	_ = w.Flush()
	data := buf.Bytes()
	data[0] = 7
	// Recompute the checksum over the forged header.
	crc := crc32IEEE(data[:9])
	data[9], data[10], data[11], data[12] = byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24)
	_, err := NewReader(bytes.NewReader(data)).Next()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged kind error = %v, want ErrCorrupt", err)
	}
}

func crc32IEEE(b []byte) uint32 {
	table := make([]uint32, 256)
	for i := range table {
		c := uint32(i)
		for k := 0; k < 8; k++ {
			if c&1 != 0 {
				c = 0xedb88320 ^ (c >> 1)
			} else {
				c >>= 1
			}
		}
		table[i] = c
	}
	crc := ^uint32(0)
	for _, x := range b {
		crc = table[byte(crc)^x] ^ (crc >> 8)
	}
	return ^crc
}

func TestReplayIntoTracker(t *testing.T) {
	ops := []stream.Op{
		{Kind: stream.Insert, Value: 1},
		{Kind: stream.Insert, Value: 1},
		{Kind: stream.Query},
		{Kind: stream.Delete, Value: 1},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.AppendAll(ops)
	_ = w.Flush()

	h := exact.NewHistogram()
	queries := 0
	applied, err := Replay(&buf, histAdapter{h}, func() { queries++ })
	if err != nil {
		t.Fatal(err)
	}
	if applied != 3 || queries != 1 {
		t.Fatalf("applied = %d queries = %d", applied, queries)
	}
	if h.Len() != 1 || h.SelfJoin() != 1 {
		t.Fatalf("tracker state wrong: len=%d sj=%d", h.Len(), h.SelfJoin())
	}
}

func TestReplayPropagatesDeleteError(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.Append(stream.Op{Kind: stream.Delete, Value: 5}) // invalid: nothing live
	_ = w.Flush()
	h := exact.NewHistogram()
	if _, err := Replay(&buf, histAdapter{h}, nil); err == nil {
		t.Fatal("invalid delete not propagated")
	}
}

// histAdapter adapts the exact histogram to stream.Tracker.
type histAdapter struct{ h *exact.Histogram }

func (a histAdapter) Insert(v uint64)       { a.h.Insert(v) }
func (a histAdapter) Delete(v uint64) error { return a.h.Delete(v) }

func TestReaderCount(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.Append(stream.Op{Kind: stream.Insert, Value: 1})
	_ = w.Append(stream.Op{Kind: stream.Insert, Value: 2})
	_ = w.Flush()
	r := NewReader(&buf)
	_, _ = r.Next()
	if r.Count() != 1 {
		t.Fatalf("Count = %d", r.Count())
	}
}

// TestAppendRunSplitsAtRecordCap: a run longer than the per-record cap
// becomes several records, each within it, that read back as the run's
// rows in order — by run and by op alike.
func TestAppendRunSplitsAtRecordCap(t *testing.T) {
	const arity = 2
	rows := 2*maxRecordRows + 5
	vals := make([]uint64, rows*arity)
	for i := range vals {
		vals[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.AppendRun(Run{Del: true, Arity: arity, Vals: vals}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != int64(rows) {
		t.Fatalf("writer Count = %d, want %d rows", w.Count(), rows)
	}
	if want := 3*(batchHeaderSize+4) + 8*len(vals); buf.Len() != want {
		t.Fatalf("wrote %d bytes, want %d (three records)", buf.Len(), want)
	}
	data := buf.Bytes()
	lr := NewReader(bytes.NewReader(data))
	var got []uint64
	for {
		rn, err := lr.NextRun()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !rn.Del || rn.Arity != arity || rn.Rows() > maxRecordRows {
			t.Fatalf("record of %d rows, del=%v arity=%d", rn.Rows(), rn.Del, rn.Arity)
		}
		got = append(got, rn.Vals...)
	}
	ops, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) || len(ops) != rows || lr.Count() != int64(rows) {
		t.Fatalf("read %d values and %d ops (Count %d), want %d and %d", len(got), len(ops), lr.Count(), len(vals), rows)
	}
	for i, op := range ops {
		want := stream.Op{Kind: stream.Delete, Value: vals[i*arity], Rest: vals[i*arity+1 : i*arity+arity]}
		if got[i*arity] != vals[i*arity] || got[i*arity+1] != vals[i*arity+1] || !op.Equal(want) {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestAppendRunRejectsInvalid(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	for _, r := range []Run{
		{Arity: 0, Vals: []uint64{1}},
		{Arity: maxArity + 1, Vals: make([]uint64, maxArity+1)},
		{Arity: 2, Vals: []uint64{1, 2, 3}},
	} {
		if err := w.AppendRun(r); err == nil {
			t.Fatalf("run of arity %d with %d values accepted", r.Arity, len(r.Vals))
		}
	}
}

func BenchmarkAppend(b *testing.B) {
	w := NewWriter(io.Discard)
	op := stream.Op{Kind: stream.Insert, Value: 12345}
	for i := 0; i < b.N; i++ {
		if err := w.Append(op); err != nil {
			b.Fatal(err)
		}
	}
}
