package oplog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"slices"
	"testing"
	"testing/quick"
)

// appendV1 hand-encodes a version-1 record (kind 0 insert, 1 delete,
// 2 query): the Writer writes only version 3, so the older layouts are
// pinned here byte for byte.
func appendV1(b []byte, kind byte, v uint64) []byte {
	rec := binary.LittleEndian.AppendUint64([]byte{kind}, v)
	return binary.LittleEndian.AppendUint32(append(b, rec...), crc32.ChecksumIEEE(rec))
}

// appendV2 hand-encodes a version-2 tuple record of row's arity (2..255).
func appendV2(b []byte, del bool, row []uint64) []byte {
	rec := []byte{kindTupleInsert, byte(len(row))}
	if del {
		rec[0] = kindTupleDelete
	}
	for _, v := range row {
		rec = binary.LittleEndian.AppendUint64(rec, v)
	}
	return binary.LittleEndian.AppendUint32(append(b, rec...), crc32.ChecksumIEEE(rec))
}

// encode writes runs through a Writer and returns the bytes.
func encode(t testing.TB, runs ...Run) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range runs {
		if err := w.AppendRun(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readRuns reads every record of data with NextRun, copying each run out
// of the Reader's scratch; err is the first error other than io.EOF.
func readRuns(data []byte) (runs []Run, lr *Reader, err error) {
	lr = NewReader(bytes.NewReader(data))
	for {
		rn, err := lr.NextRun()
		if err == io.EOF {
			return runs, lr, nil
		}
		if err != nil {
			return runs, lr, err
		}
		rn.Vals = slices.Clone(rn.Vals)
		runs = append(runs, rn)
	}
}

func runsEqual(a, b []Run) bool {
	return slices.EqualFunc(a, b, func(x, y Run) bool {
		return x.Del == y.Del && x.Arity == y.Arity && slices.Equal(x.Vals, y.Vals)
	})
}

// TestRoundTrip reads back runs of both kinds at arities 1, 2 and 255 as
// the records they were written as, with Count the rows.
func TestRoundTrip(t *testing.T) {
	wide := make([]uint64, 2*maxArity)
	for i := range wide {
		wide[i] = uint64(i) << 40
	}
	runs := []Run{
		{Arity: 1, Vals: []uint64{42, 1 << 60, 0}},
		{Del: true, Arity: 1, Vals: []uint64{42}},
		{Arity: 2, Vals: []uint64{1, 2, 3, 4}},
		{Del: true, Arity: maxArity, Vals: wide},
	}
	got, lr, err := readRuns(encode(t, runs...))
	if err != nil {
		t.Fatal(err)
	}
	if !runsEqual(got, runs) {
		t.Fatalf("read %+v, want %+v", got, runs)
	}
	if lr.Count() != 3+1+2+2 {
		t.Fatalf("Count = %d, want 8 rows", lr.Count())
	}
}

// TestReadsEveryVersion reads one stream holding hand-encoded version-1
// and -2 records beside version-3 ones: each op is a run of one row, and
// a query record is skipped but counted.
func TestReadsEveryVersion(t *testing.T) {
	data := appendV1(nil, kindInsert, 7)
	data = appendV1(data, kindQuery, 0)
	data = appendV2(data, true, []uint64{3, 9, 27})
	data = append(data, encode(t, Run{Arity: 2, Vals: []uint64{5, 6, 7, 8}})...)
	data = appendV1(data, kindDelete, 7)
	want := []Run{
		{Arity: 1, Vals: []uint64{7}},
		{Del: true, Arity: 3, Vals: []uint64{3, 9, 27}},
		{Arity: 2, Vals: []uint64{5, 6, 7, 8}},
		{Del: true, Arity: 1, Vals: []uint64{7}},
	}
	got, lr, err := readRuns(data)
	if err != nil {
		t.Fatal(err)
	}
	if !runsEqual(got, want) {
		t.Fatalf("read %+v, want %+v", got, want)
	}
	if lr.Count() != 6 || lr.Offset() != int64(len(data)) {
		t.Fatalf("Count %d Offset %d, want 6 rows (the query counts one) and %d bytes", lr.Count(), lr.Offset(), len(data))
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		var runs []Run
		for len(raw) > 0 {
			arity := 1 + int(raw[0]%3)
			n := min(len(raw)/arity*arity, arity*(1+int(raw[0]%7)))
			if n == 0 {
				break
			}
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = uint64(raw[i]) << (raw[i] % 33)
			}
			runs = append(runs, Run{Del: raw[0]%2 == 1, Arity: arity, Vals: vals})
			raw = raw[n:]
		}
		got, _, err := readRuns(encode(t, runs...))
		return err == nil && runsEqual(got, runs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTornTailDetected(t *testing.T) {
	data := encode(t, Run{Arity: 1, Vals: []uint64{7}}, Run{Arity: 1, Vals: []uint64{8, 9}})
	r := NewReader(bytes.NewReader(data[:len(data)-5])) // cut into the second record
	if _, err := r.NextRun(); err != nil {
		t.Fatalf("first record should read cleanly: %v", err)
	}
	if _, err := r.NextRun(); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn record error = %v, want ErrUnexpectedEOF", err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	for _, tc := range []struct {
		data []byte
		at   int // a value byte
	}{
		{appendV1(nil, kindInsert, 7), 3},
		{encode(t, Run{Arity: 1, Vals: []uint64{7}}), batchHeaderSize + 3},
	} {
		tc.data[tc.at] ^= 0xff
		if _, err := NewReader(bytes.NewReader(tc.data)).NextRun(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("record of kind %d: corruption error = %v, want ErrCorrupt", tc.data[0], err)
		}
	}
}

func TestInvalidKindOnDiskDetected(t *testing.T) {
	// Forge a record with kind 7 and a VALID checksum: the reader must
	// still reject it.
	data := appendV1(nil, 7, 7)
	if _, err := NewReader(bytes.NewReader(data)).NextRun(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged kind error = %v, want ErrCorrupt", err)
	}
}

func TestReaderCount(t *testing.T) {
	data := appendV1(nil, kindInsert, 1)
	data = appendV1(data, kindQuery, 0)
	data = append(data, encode(t, Run{Arity: 2, Vals: []uint64{1, 2, 3, 4}})...)
	r := NewReader(bytes.NewReader(data))
	for _, want := range []int64{1, 4} {
		if _, err := r.NextRun(); err != nil {
			t.Fatal(err)
		}
		if r.Count() != want {
			t.Fatalf("Count = %d, want %d", r.Count(), want)
		}
	}
}

// TestAppendRunOneRecord: a run of up to MaxRecordVals values, at any
// arity, is one record that reads back as the run; one value more is
// refused.
func TestAppendRunOneRecord(t *testing.T) {
	for _, arity := range []int{1, 3} {
		vals := make([]uint64, MaxRecordVals-MaxRecordVals%arity)
		for i := range vals {
			vals[i] = uint64(i) * 0x9e3779b97f4a7c15
		}
		data := encode(t, Run{Del: true, Arity: arity, Vals: vals})
		if want := batchHeaderSize + 8*len(vals) + 4; len(data) != want {
			t.Fatalf("arity %d: wrote %d bytes, want one %d-byte record", arity, len(data), want)
		}
		got, lr, err := readRuns(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || !got[0].Del || got[0].Arity != arity || !slices.Equal(got[0].Vals, vals) {
			t.Fatalf("arity %d: read %d records, want the run as one", arity, len(got))
		}
		if lr.Count() != int64(len(vals)/arity) {
			t.Fatalf("arity %d: Count = %d, want %d rows", arity, lr.Count(), len(vals)/arity)
		}
	}
	over := Run{Arity: 1, Vals: make([]uint64, MaxRecordVals+1)}
	if err := NewWriter(io.Discard).AppendRun(over); err == nil {
		t.Fatalf("run of %d values accepted", len(over.Vals))
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

func BenchmarkAppendRun(b *testing.B) {
	w := NewWriter(io.Discard)
	r := Run{Arity: 1, Vals: make([]uint64, 512)}
	for i := range r.Vals {
		r.Vals[i] = uint64(i) * 12345
	}
	b.SetBytes(int64(8 * len(r.Vals)))
	for b.Loop() {
		if err := w.AppendRun(r); err != nil {
			b.Fatal(err)
		}
	}
}
