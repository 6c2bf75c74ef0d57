// Package oplog persists operation streams as append-only binary logs —
// the "update log" of the paper's §5 warehouse scenario, where tracking
// algorithms periodically catch up "by stepping through any additions to
// the update log since the previous run".
//
// Three record versions share one stream (little endian throughout). The
// kind byte fixes the version, and kinds a version introduced never
// appear in logs written before it, so older logs read back unchanged and
// an older reader reports a newer record as corrupt instead of
// misdecoding it.
//
// Version 1, one single-attribute op:
//
//	byte   kind (0 insert, 1 delete, 2 query)
//	uint64 value (0 for query)
//	uint32 crc32 of the 9 bytes above
//
// Version 2, one multi-attribute tuple op (the engine's chain-join
// schemas):
//
//	byte   kind (3 tuple insert, 4 tuple delete)
//	byte   arity m (2..255; arity-1 ops use the version-1 kinds)
//	m × uint64 attribute values, primary first
//	uint32 crc32 of the 2+8m bytes above
//
// Version 3, a run of n rows of one kind and arity — the one record a
// Writer writes, one per caller batch:
//
//	byte   kind (5 batch insert, 6 batch delete)
//	byte   arity m (1..255)
//	uint32 row count n (n ≥ 1, n·m ≤ MaxRecordVals)
//	uint32 crc32 of the 6 bytes above
//	n·m × uint64 values, row-major, each row primary first
//	uint32 crc32 of the 8·n·m value bytes
//
// The header carries its own checksum so that a damaged row count reads
// as corruption before anything is sized by it: unchecked, a flipped
// count in the last segment would read as a torn tail, and recovery would
// cut the whole records behind it. Versions 1 and 2 are only read: logs
// written before runs existed still replay.
//
// The version-3 bound is a count of values, MaxRecordVals, so that a
// whole amswire BATCH frame is one record. It used to be 4,096 rows, and
// a reader from before the change reports a longer record as corrupt: a
// log holding one does not open on an older binary, and is never
// misdecoded there.
//
// Every record is checksummed, so a torn tail write is detected and
// reported as a clean truncation point rather than silent corruption. A
// Writer appends runs (AppendRun); a Reader hands back one record's rows
// at a time as a Run (NextRun). Count counts rows, a query record as one,
// and Offset always lands on a record boundary: no row of a torn or
// corrupt record is handed out.
package oplog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// MinRecordSize is the smallest record encoding (the version-1 layout).
// A log tail shorter than this cannot hold any complete record, which is
// what lets recovery classify an undecodable sub-record tail as torn
// rather than corrupt.
const MinRecordSize = 1 + 8 + 4

// MaxRecordVals bounds one version-3 record's values, rows × arity: at
// least amswire's MaxBatchVals, so any BATCH frame fits one record.
const MaxRecordVals = 1 << 21

const (
	// Version-1 kind bytes.
	kindInsert = 0
	kindDelete = 1
	kindQuery  = 2
	// Tuple-record kind bytes (version 2) and batch-record kind bytes
	// (version 3). They lie beyond the version-1 kinds on purpose: a
	// version-1 reader meeting one reports corruption instead of
	// misdecoding it.
	kindTupleInsert = 3
	kindTupleDelete = 4
	kindBatchInsert = 5
	kindBatchDelete = 6
	// maxArity is the widest row a record can carry (the arity field is
	// one byte).
	maxArity = 255
	// batchHeaderSize is a version-3 record's kind, arity, row count and
	// header checksum.
	batchHeaderSize = 1 + 1 + 4 + 4
)

// ErrCorrupt is returned when a record fails its checksum.
var ErrCorrupt = errors.New("oplog: corrupt record")

// Run is rows of one kind and arity, row-major: Vals holds Rows() rows of
// Arity values each, primary attribute first. It is the unit of a
// version-3 record.
type Run struct {
	Del   bool
	Arity int
	Vals  []uint64
}

// Rows returns the run's row count.
func (r Run) Rows() int { return len(r.Vals) / r.Arity }

// Writer appends runs to an underlying writer.
type Writer struct {
	w *bufio.Writer
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// recordBufs lends AppendRun a buffer for a record that does not fit the
// writer's free buffer space, so no Writer keeps a scratch; a buffer
// comes back only for a record of at most 64 KiB.
var recordBufs sync.Pool

// AppendRun writes a run as one version-3 record WITHOUT flushing — the
// engine's group commit: records collect in the Writer's 4 KiB buffer,
// which goes to the underlying writer each time it fills and at Flush. A
// record that does not fit the buffer's free space is encoded into a
// borrowed buffer and written through (straight to the underlying writer
// when the buffer is empty). An empty run writes nothing; a run of more
// than MaxRecordVals values is an error.
func (lw *Writer) AppendRun(r Run) error {
	n := len(r.Vals)
	if r.Arity < 1 || r.Arity > maxArity || n%r.Arity != 0 || n > MaxRecordVals {
		return fmt.Errorf("oplog: invalid run of arity %d with %d values", r.Arity, n)
	}
	if n == 0 {
		return nil
	}
	kind := byte(kindBatchInsert)
	if r.Del {
		kind = kindBatchDelete
	}
	size := batchHeaderSize + 8*n + 4
	b := lw.w.AvailableBuffer()
	if cap(b) < size {
		p, _ := recordBufs.Get().(*[]byte)
		if p == nil || cap(*p) < size {
			buf := make([]byte, size)
			p = &buf
		}
		if size <= 64<<10 {
			defer recordBufs.Put(p)
		}
		b = *p
	}
	b = b[:size]
	b[0], b[1] = kind, byte(r.Arity)
	binary.LittleEndian.PutUint32(b[2:], uint32(n/r.Arity))
	binary.LittleEndian.PutUint32(b[6:], crc32.ChecksumIEEE(b[:6]))
	body := b[batchHeaderSize : size-4]
	for i, v := range r.Vals {
		binary.LittleEndian.PutUint64(body[8*i:], v)
	}
	binary.LittleEndian.PutUint32(b[size-4:], crc32.ChecksumIEEE(body))
	_, err := lw.w.Write(b)
	return err
}

// Flush flushes buffered records to the underlying writer.
func (lw *Writer) Flush() error { return lw.w.Flush() }

// Reader decodes records from an underlying reader.
type Reader struct {
	r *bufio.Reader
	// buf holds a version-1 or -2 record (at most 2,046 bytes), a version-3
	// header and trailer, or a chunk of a version-3 record's values.
	buf  [4096]byte
	vals []uint64 // the last record's values
	n    int64
	off  int64 // byte offset just past the last cleanly decoded record
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// NextRun returns the next record's rows as one run. Query records carry
// no rows and are skipped (Count still counts them). io.EOF signals a
// clean end; io.ErrUnexpectedEOF a torn tail (the stream ended
// mid-record); ErrCorrupt a checksum failure or an undecodable header.
// Any other error is a genuine read failure from the underlying reader,
// passed through wrapped — callers that truncate torn tails (engine
// recovery) must NOT treat a transient I/O error as permission to cut a
// healthy log. The run's values are the Reader's scratch, valid until
// the next call.
func (lr *Reader) NextRun() (Run, error) {
	for {
		rn, err := lr.read()
		if err != nil {
			return Run{}, err
		}
		if rn.Arity == 0 { // a query record
			lr.n++
			continue
		}
		lr.n += int64(rn.Rows())
		return rn, nil
	}
}

// read decodes the next record; a query record reads as a run of arity 0.
// The kind byte fixes the layout. A corrupted kind byte either lands on
// another valid kind (a checksum catches it) or falls outside the
// registry, reported as corruption here.
func (lr *Reader) read() (Run, error) {
	kind, err := lr.r.ReadByte()
	if err != nil {
		if err == io.EOF {
			return Run{}, io.EOF
		}
		return Run{}, fmt.Errorf("oplog: read record at offset %d: %w", lr.off, err)
	}
	lr.buf[0] = kind
	switch kind {
	case kindInsert, kindDelete, kindQuery, kindTupleInsert, kindTupleDelete:
		return lr.readOp(kind)
	case kindBatchInsert, kindBatchDelete:
		return lr.readBatch(kind == kindBatchDelete)
	default:
		return Run{}, fmt.Errorf("%w: kind %d", lr.corrupt(), kind)
	}
}

// readOp reads the rest of a version-1 or -2 record: one row, its values
// at b[at:end] under the checksum of everything before them.
func (lr *Reader) readOp(kind byte) (Run, error) {
	b, arity, at := lr.buf[:], 1, 1
	if kind >= kindTupleInsert {
		if err := lr.fill(b[1:2]); err != nil {
			return Run{}, err
		}
		if arity, at = int(b[1]), 2; arity < 2 {
			return Run{}, fmt.Errorf("%w: tuple arity %d", lr.corrupt(), arity)
		}
	}
	end := at + 8*arity
	if err := lr.fill(b[at : end+4]); err != nil {
		return Run{}, err
	}
	if crc32.ChecksumIEEE(b[:end]) != binary.LittleEndian.Uint32(b[end:]) {
		return Run{}, lr.corrupt()
	}
	lr.off += int64(end + 4)
	if kind == kindQuery {
		return Run{}, nil
	}
	vals := lr.vals[:0]
	for i := at; i < end; i += 8 {
		vals = append(vals, binary.LittleEndian.Uint64(b[i:]))
	}
	lr.vals = vals
	return Run{Del: kind == kindDelete || kind == kindTupleDelete, Arity: arity, Vals: vals}, nil
}

// readBatch reads the rest of a version-3 record: its checked header, then
// its values chunk by chunk under one running checksum, so the Reader
// holds no copy of the record's bytes and its values grow only as far as
// the bytes present.
func (lr *Reader) readBatch(del bool) (Run, error) {
	h := lr.buf[:batchHeaderSize]
	if err := lr.fill(h[1:]); err != nil {
		return Run{}, err
	}
	if crc32.ChecksumIEEE(h[:6]) != binary.LittleEndian.Uint32(h[6:]) {
		return Run{}, lr.corrupt()
	}
	arity, rows := int(h[1]), int64(binary.LittleEndian.Uint32(h[2:]))
	if arity < 1 || rows < 1 || rows*int64(arity) > MaxRecordVals {
		return Run{}, fmt.Errorf("%w: batch of %d rows at arity %d", lr.corrupt(), rows, arity)
	}
	n := int(rows) * arity
	vals := lr.vals[:0]
	var sum uint32
	for len(vals) < n {
		c := lr.buf[:8*min(n-len(vals), len(lr.buf)/8)]
		if err := lr.fill(c); err != nil {
			return Run{}, err
		}
		sum = crc32.Update(sum, crc32.IEEETable, c)
		for i := 0; i < len(c); i += 8 {
			vals = append(vals, binary.LittleEndian.Uint64(c[i:]))
		}
	}
	lr.vals = vals
	t := lr.buf[:4]
	if err := lr.fill(t); err != nil {
		return Run{}, err
	}
	if sum != binary.LittleEndian.Uint32(t) {
		return Run{}, lr.corrupt()
	}
	lr.off += int64(batchHeaderSize + 8*n + 4)
	return Run{Del: del, Arity: arity, Vals: vals}, nil
}

// fill reads the rest of a started record; a short read is a torn tail.
func (lr *Reader) fill(b []byte) error {
	if _, err := io.ReadFull(lr.r, b); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return io.ErrUnexpectedEOF
		}
		return fmt.Errorf("oplog: read record at offset %d: %w", lr.off, err)
	}
	return nil
}

// corrupt reports the record at the current offset as corrupt.
func (lr *Reader) corrupt() error {
	return fmt.Errorf("%w at offset %d", ErrCorrupt, lr.off)
}

// Count returns how many rows have been read so far (a query record
// counts as one).
func (lr *Reader) Count() int64 { return lr.n }

// Offset returns the byte offset just past the last cleanly decoded
// record — the truncation point a recovery should cut a torn log back to.
func (lr *Reader) Offset() int64 { return lr.off }
