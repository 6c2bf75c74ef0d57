package oplog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"testing"
)

// FuzzReader drives Reader.NextRun with arbitrary byte streams — random
// garbage, valid logs, and torn-tail prefixes of valid logs — and checks
// the recovery contract the engine depends on:
//
//   - NextRun never panics;
//   - whatever happens, Offset() is a clean truncation point: within the
//     input, and the prefix up to it re-reads cleanly as exactly the runs
//     read, Count() rows in all (records are variable-length, so the
//     re-read is the boundary proof);
//   - a failure is reported as io.ErrUnexpectedEOF (short tail) only when
//     the input ends mid-record, and as ErrCorrupt otherwise.
func FuzzReader(f *testing.F) {
	// Seed: a valid log of version-1 and -2 records (hand-encoded: the
	// Writer writes only version 3) and several torn prefixes.
	var full []byte
	for i := 0; i < 8; i++ {
		full = appendV1(full, kindInsert, uint64(i*7))
	}
	full = appendV1(full, kindDelete, 7)
	full = appendV1(full, kindQuery, 0)
	full = appendV2(full, false, []uint64{3, 9, 27})
	full = appendV2(full, true, []uint64{3, 9, 27})
	f.Add([]byte{})
	f.Add(append([]byte(nil), full...))
	for _, cut := range []int{1, MinRecordSize - 1, MinRecordSize, MinRecordSize + 5, len(full) - 1} {
		f.Add(append([]byte(nil), full[:cut]...))
	}
	f.Add(bytes.Repeat([]byte{0xFF}, 3*MinRecordSize))
	// Batch records: both kinds at arity 1 and 3, after a version-1
	// record; then torn inside the header, the values and the trailer;
	// then with a damaged row count.
	all := appendV1(nil, kindInsert, 5)
	var batches bytes.Buffer
	w := NewWriter(&batches)
	_ = w.AppendRun(Run{Arity: 1, Vals: []uint64{1, 2, 3, 1 << 63}})
	_ = w.AppendRun(Run{Del: true, Arity: 1, Vals: []uint64{2}})
	_ = w.AppendRun(Run{Arity: 3, Vals: []uint64{1, 2, 3, 4, 5, 6}})
	_ = w.AppendRun(Run{Del: true, Arity: 3, Vals: []uint64{4, 5, 6}})
	_ = w.Flush()
	all = append(all, batches.Bytes()...)
	f.Add(append([]byte(nil), all...))
	last := len(all) - (batchHeaderSize + 3*8 + 4)
	for _, cut := range []int{MinRecordSize + 3, last + 4, last + batchHeaderSize + 9, len(all) - 2} {
		f.Add(append([]byte(nil), all[:cut]...))
	}
	damaged := append([]byte(nil), all...)
	damaged[MinRecordSize+2]++ // the first batch record's row count
	f.Add(damaged)

	f.Fuzz(func(t *testing.T, data []byte) {
		runs, lr, failure := readRuns(data)
		clean := lr.Offset()
		if clean > int64(len(data)) {
			t.Fatalf("Offset %d beyond input length %d", clean, len(data))
		}
		if failure == nil {
			// Clean EOF is only legal exactly at the end of the input.
			if clean != int64(len(data)) {
				t.Fatalf("clean EOF with %d bytes unaccounted", int64(len(data))-clean)
			}
		} else if failure == io.ErrUnexpectedEOF {
			// Short-tail reports require at least a started record.
			if int(clean) == len(data) {
				t.Fatal("torn-tail error with no partial record")
			}
		} else if !errors.Is(failure, ErrCorrupt) {
			t.Fatalf("failure %v is neither a torn tail nor corruption", failure)
		}

		// The clean prefix must re-read without error, yielding the same
		// runs and the same count.
		again, back, err := readRuns(data[:clean])
		if err != nil {
			t.Fatalf("clean prefix re-read failed: %v", err)
		}
		if !runsEqual(again, runs) || back.Count() != lr.Count() {
			t.Fatalf("re-read %d runs (Count %d), want %d (Count %d)", len(again), back.Count(), len(runs), lr.Count())
		}
	})
}

// FuzzBatchRecord round-trips one version-3 record of arbitrary kind,
// arity (1–255) and values through the Writer and the Reader:
//
//   - the record reads back as exactly the rows written, with Count the
//     row count and Offset the record's length, then a clean io.EOF;
//   - every strict prefix (every one in the record's first and last 64
//     bytes, and about 4,096 spread between them) reads as
//     io.ErrUnexpectedEOF, and no row of the torn record is handed out;
//   - a header whose values (rows × arity) exceed MaxRecordVals,
//     checksummed as the writer would, reads as ErrCorrupt before anything
//     of the size it claims is allocated — from the header alone, since
//     the reader must not try to read the values it announces.
func FuzzBatchRecord(f *testing.F) {
	f.Add(false, uint8(0), []byte{1, 2, 3, 4, 5, 6, 7, 8}, uint32(0))
	f.Add(true, uint8(2), bytes.Repeat([]byte{0xAB}, 8*3*5), uint32(7))
	f.Add(false, uint8(254), []byte{}, uint32(math.MaxUint32))
	// 5,000 rows: longer than the 4,096-row records of older writers.
	f.Add(true, uint8(0), bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 0xC9}, 5000), uint32(12345))

	f.Fuzz(func(t *testing.T, del bool, arityByte uint8, data []byte, forged uint32) {
		arity := 1 + int(arityByte)%maxArity
		rows := min(max(len(data)/(8*arity), 1), MaxRecordVals/arity)
		vals := make([]uint64, rows*arity)
		for i := range vals {
			if 8*i+8 <= len(data) {
				vals[i] = binary.LittleEndian.Uint64(data[8*i:])
			}
		}
		rec := encode(t, Run{Del: del, Arity: arity, Vals: vals})
		if want := batchHeaderSize + 8*len(vals) + 4; len(rec) != want {
			t.Fatalf("record is %d bytes, want %d", len(rec), want)
		}

		lr := NewReader(bytes.NewReader(rec))
		got, err := lr.NextRun()
		if err != nil {
			t.Fatal(err)
		}
		if got.Del != del || got.Arity != arity || len(got.Vals) != len(vals) {
			t.Fatalf("read run del=%v arity=%d with %d values, wrote del=%v arity=%d with %d",
				got.Del, got.Arity, len(got.Vals), del, arity, len(vals))
		}
		for i, v := range vals {
			if got.Vals[i] != v {
				t.Fatalf("value %d reads %d, wrote %d", i, got.Vals[i], v)
			}
		}
		if lr.Count() != int64(rows) || lr.Offset() != int64(len(rec)) {
			t.Fatalf("Count %d Offset %d, want %d rows and %d bytes", lr.Count(), lr.Offset(), rows, len(rec))
		}
		if _, err := lr.NextRun(); err != io.EOF {
			t.Fatalf("after the record: %v, want io.EOF", err)
		}

		step := max(1, len(rec)/4096)
		for cut := 1; cut < len(rec); cut++ {
			if cut > 64 && cut < len(rec)-64 && cut%step != 0 {
				continue
			}
			lr := NewReader(bytes.NewReader(rec[:cut]))
			if _, err := lr.NextRun(); err != io.ErrUnexpectedEOF {
				t.Fatalf("prefix of %d/%d bytes: %v, want io.ErrUnexpectedEOF", cut, len(rec), err)
			}
			if lr.Count() != 0 || lr.Offset() != 0 {
				t.Fatalf("prefix of %d/%d bytes: Count %d Offset %d, want nothing read", cut, len(rec), lr.Count(), lr.Offset())
			}
		}

		hdr := append([]byte(nil), rec[:batchHeaderSize]...)
		lo := uint64(MaxRecordVals/arity + 1) // the fewest rows over the bound
		count := lo + uint64(forged)%(math.MaxUint32-lo+1)
		binary.LittleEndian.PutUint32(hdr[2:], uint32(count))
		binary.LittleEndian.PutUint32(hdr[6:], crc32.ChecksumIEEE(hdr[:6]))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		lr = NewReader(bytes.NewReader(hdr))
		_, err = lr.NextRun()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("row count %d over the bound: %v, want ErrCorrupt", count, err)
		}
		if claimed := 8 * count * uint64(arity); after.TotalAlloc-before.TotalAlloc >= claimed {
			t.Fatalf("row count %d over the bound: allocated %d bytes, the record claims %d",
				count, after.TotalAlloc-before.TotalAlloc, claimed)
		}
	})
}
