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
// Version 3, a run of n rows of one kind and arity — what the engine
// writes, one record per batch (more only past 4,096 rows or across a
// segment roll):
//
//	byte   kind (5 batch insert, 6 batch delete)
//	byte   arity m (1..255)
//	uint32 row count n (1..4096)
//	uint32 crc32 of the 6 bytes above
//	n·m × uint64 values, row-major, each row primary first
//	uint32 crc32 of the 8·n·m value bytes
//
// The header carries its own checksum so that a damaged row count reads
// as corruption before anything is sized by it: unchecked, a flipped
// count in the last segment would read as a torn tail, and recovery would
// cut the whole records behind it.
//
// Every record is checksummed, so a torn tail write is detected and
// reported as a clean truncation point rather than silent corruption. A
// Writer appends single ops (versions 1 and 2) or runs (version 3); a
// Reader hands back one op at a time (tuple ops carry their non-primary
// attributes in Op.Rest) or one record's rows as a Run. Count counts
// rows, a query record as one, and Offset always lands on a record
// boundary: no row of a torn or corrupt record is handed out.
package oplog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"amstrack/internal/stream"
)

// MinRecordSize is the smallest record encoding (the version-1 layout).
// A log tail shorter than this cannot hold any complete record, which is
// what lets recovery classify an undecodable sub-record tail as torn
// rather than corrupt.
const MinRecordSize = 1 + 8 + 4

const (
	recordSize = MinRecordSize
	// Tuple-record kind bytes (version 2) and batch-record kind bytes
	// (version 3). They live beyond the stream.OpKind space on purpose: a
	// version-1 reader meeting one reports corruption instead of
	// misdecoding it.
	kindTupleInsert = 3
	kindTupleDelete = 4
	kindBatchInsert = 5
	kindBatchDelete = 6
	// maxArity is the widest tuple a record can carry (the arity field is
	// one byte).
	maxArity = 255
	// maxTupleSize bounds a version-2 record: the widest tuple.
	maxTupleSize = 2 + 8*maxArity + 4
	// batchHeaderSize is a version-3 record's kind, arity, row count and
	// header checksum.
	batchHeaderSize = 1 + 1 + 4 + 4
	// maxRecordRows caps the rows of one version-3 record, and with them
	// the reader's scratch: at most 8 MiB of values at arity 255.
	maxRecordRows = 4096
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

// Writer appends operations to an underlying writer.
type Writer struct {
	w   *bufio.Writer
	buf [maxTupleSize]byte // single-op encode scratch
	run []byte             // AppendRun encode scratch, at most one record
	n   int64
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// encode serializes op into lw.buf and returns the record length. Ops
// without Rest encode as version-1 records, tuple ops as version 2.
func (lw *Writer) encode(op stream.Op) (int, error) {
	if len(op.Rest) == 0 {
		switch op.Kind {
		case stream.Insert, stream.Delete, stream.Query:
		default:
			return 0, fmt.Errorf("oplog: invalid op kind %d", op.Kind)
		}
		lw.buf[0] = byte(op.Kind)
		binary.LittleEndian.PutUint64(lw.buf[1:], op.Value)
		binary.LittleEndian.PutUint32(lw.buf[9:], crc32.ChecksumIEEE(lw.buf[:9]))
		return recordSize, nil
	}
	var kind byte
	switch op.Kind {
	case stream.Insert:
		kind = kindTupleInsert
	case stream.Delete:
		kind = kindTupleDelete
	default:
		return 0, fmt.Errorf("oplog: op kind %d cannot carry a tuple payload", op.Kind)
	}
	arity := 1 + len(op.Rest)
	if arity > maxArity {
		return 0, fmt.Errorf("oplog: tuple arity %d exceeds %d", arity, maxArity)
	}
	lw.buf[0] = kind
	lw.buf[1] = byte(arity)
	binary.LittleEndian.PutUint64(lw.buf[2:], op.Value)
	for i, v := range op.Rest {
		binary.LittleEndian.PutUint64(lw.buf[10+8*i:], v)
	}
	body := 2 + 8*arity
	binary.LittleEndian.PutUint32(lw.buf[body:], crc32.ChecksumIEEE(lw.buf[:body]))
	return body + 4, nil
}

// Append writes one operation as a version-1 or version-2 record.
func (lw *Writer) Append(op stream.Op) error {
	n, err := lw.encode(op)
	if err != nil {
		return err
	}
	if _, err := lw.w.Write(lw.buf[:n]); err != nil {
		return err
	}
	lw.n++
	return nil
}

// AppendAll writes a batch of operations.
func (lw *Writer) AppendAll(ops []stream.Op) error {
	for _, op := range ops {
		if err := lw.Append(op); err != nil {
			return err
		}
	}
	return nil
}

// AppendRun writes a run as version-3 records of at most 4096 rows each,
// WITHOUT flushing — the engine's group commit: records collect in the
// Writer's 4 KiB buffer, which goes to the underlying writer each time
// it fills and at Flush. The run's values are encoded, not kept. An
// empty run writes nothing.
func (lw *Writer) AppendRun(r Run) error {
	if r.Arity < 1 || r.Arity > maxArity || len(r.Vals)%r.Arity != 0 {
		return fmt.Errorf("oplog: invalid run of arity %d with %d values", r.Arity, len(r.Vals))
	}
	kind := byte(kindBatchInsert)
	if r.Del {
		kind = kindBatchDelete
	}
	for vals := r.Vals; len(vals) > 0; {
		rows := min(len(vals)/r.Arity, maxRecordRows)
		rec := vals[:rows*r.Arity]
		vals = vals[len(rec):]
		size := batchHeaderSize + 8*len(rec) + 4
		if cap(lw.run) < size {
			lw.run = make([]byte, size)
		}
		b := lw.run[:size]
		b[0], b[1] = kind, byte(r.Arity)
		binary.LittleEndian.PutUint32(b[2:], uint32(rows))
		binary.LittleEndian.PutUint32(b[6:], crc32.ChecksumIEEE(b[:6]))
		body := b[batchHeaderSize : size-4]
		for i, v := range rec {
			binary.LittleEndian.PutUint64(body[8*i:], v)
		}
		binary.LittleEndian.PutUint32(b[size-4:], crc32.ChecksumIEEE(body))
		if _, err := lw.w.Write(b); err != nil {
			return err
		}
		lw.n += int64(rows)
	}
	return nil
}

// Count returns how many rows have been appended (a single op is one).
func (lw *Writer) Count() int64 { return lw.n }

// Flush flushes buffered records to the underlying writer.
func (lw *Writer) Flush() error { return lw.w.Flush() }

// Reader decodes operations from an underlying reader.
type Reader struct {
	r    *bufio.Reader
	hdr  [maxTupleSize]byte // version-1 and -2 records, version-3 headers
	body []byte             // version-3 values and trailer
	vals []uint64           // the current record's decoded values
	run  Run                // the current record's rows not yet handed out
	n    int64
	off  int64 // byte offset just past the last cleanly decoded record
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// Next returns the next operation: the next row of the current record,
// or the first of the next one. io.EOF signals a clean end;
// io.ErrUnexpectedEOF a torn tail (the stream ended mid-record);
// ErrCorrupt a checksum failure or an undecodable header. Any other
// error is a genuine read failure from the underlying reader, passed
// through wrapped — callers that truncate torn tails (engine recovery)
// must NOT treat a transient I/O error as permission to cut a healthy
// log.
func (lr *Reader) Next() (stream.Op, error) {
	if len(lr.run.Vals) == 0 {
		query, err := lr.read()
		if err != nil {
			return stream.Op{}, err
		}
		if query {
			// A query record's value field rides along, as it was written.
			lr.n++
			return stream.Op{Kind: stream.Query, Value: binary.LittleEndian.Uint64(lr.hdr[1:9])}, nil
		}
	}
	a := lr.run.Arity
	row := lr.run.Vals[:a]
	lr.run.Vals = lr.run.Vals[a:]
	lr.n++
	op := stream.Op{Kind: stream.Insert, Value: row[0]}
	if lr.run.Del {
		op.Kind = stream.Delete
	}
	if a > 1 {
		op.Rest = append([]uint64(nil), row[1:]...)
	}
	return op, nil
}

// NextRun returns the next record's rows as one run — or, after Next
// handed out some of a record's rows, the rest of them. Query records
// carry no rows and are skipped (Count still counts them). Errors are
// Next's. The run's values are the Reader's scratch, valid until the
// next call.
func (lr *Reader) NextRun() (Run, error) {
	for len(lr.run.Vals) == 0 {
		query, err := lr.read()
		if err != nil {
			return Run{}, err
		}
		if query {
			lr.n++
		}
	}
	r := lr.run
	lr.run.Vals = nil
	lr.n += int64(r.Rows())
	return r, nil
}

// read decodes the next record into lr.run; query reports a query record,
// which leaves the run empty. The kind byte fixes the layout. A corrupted
// kind byte either lands on another valid kind (a checksum catches it) or
// falls outside the registry, reported as corruption here.
func (lr *Reader) read() (query bool, err error) {
	lr.run = Run{}
	kind, err := lr.r.ReadByte()
	if err != nil {
		if err == io.EOF {
			return false, io.EOF
		}
		return false, fmt.Errorf("oplog: read record at offset %d: %w", lr.off, err)
	}
	lr.hdr[0] = kind
	switch kind {
	case byte(stream.Insert), byte(stream.Delete), byte(stream.Query):
		if err := lr.fill(lr.hdr[1:recordSize]); err != nil {
			return false, err
		}
		if err := lr.check(lr.hdr[:9], lr.hdr[9:]); err != nil {
			return false, err
		}
		lr.off += recordSize
		if kind == byte(stream.Query) {
			return true, nil
		}
		lr.setRun(kind == byte(stream.Delete), 1, lr.hdr[1:9])
	case kindTupleInsert, kindTupleDelete:
		if err := lr.fill(lr.hdr[1:2]); err != nil {
			return false, err
		}
		arity := int(lr.hdr[1])
		if arity < 2 {
			return false, fmt.Errorf("%w at offset %d: tuple arity %d", ErrCorrupt, lr.off, arity)
		}
		body := 2 + 8*arity
		if err := lr.fill(lr.hdr[2 : body+4]); err != nil {
			return false, err
		}
		if err := lr.check(lr.hdr[:body], lr.hdr[body:]); err != nil {
			return false, err
		}
		lr.off += int64(body + 4)
		lr.setRun(kind == kindTupleDelete, arity, lr.hdr[2:body])
	case kindBatchInsert, kindBatchDelete:
		h := lr.hdr[:batchHeaderSize]
		if err := lr.fill(h[1:]); err != nil {
			return false, err
		}
		if err := lr.check(h[:6], h[6:]); err != nil {
			return false, err
		}
		arity, rows := int(h[1]), int(binary.LittleEndian.Uint32(h[2:]))
		if arity < 1 || rows < 1 || rows > maxRecordRows {
			return false, fmt.Errorf("%w at offset %d: batch of %d rows at arity %d", ErrCorrupt, lr.off, rows, arity)
		}
		size := 8*rows*arity + 4
		if cap(lr.body) < size {
			lr.body = make([]byte, size)
		}
		b := lr.body[:size]
		if err := lr.fill(b); err != nil {
			return false, err
		}
		if err := lr.check(b[:size-4], b[size-4:]); err != nil {
			return false, err
		}
		lr.off += int64(batchHeaderSize + size)
		lr.setRun(kind == kindBatchDelete, arity, b[:size-4])
	default:
		return false, fmt.Errorf("%w at offset %d: kind %d", ErrCorrupt, lr.off, kind)
	}
	return false, nil
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

// check compares the crc32 of b with the little-endian sum in trailer.
func (lr *Reader) check(b, trailer []byte) error {
	if crc32.ChecksumIEEE(b) != binary.LittleEndian.Uint32(trailer) {
		return fmt.Errorf("%w at offset %d", ErrCorrupt, lr.off)
	}
	return nil
}

// setRun decodes a record's value bytes into the current run.
func (lr *Reader) setRun(del bool, arity int, b []byte) {
	n := len(b) / 8
	if cap(lr.vals) < n {
		lr.vals = make([]uint64, n)
	}
	vals := lr.vals[:n]
	for i := range vals {
		vals[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	lr.run = Run{Del: del, Arity: arity, Vals: vals}
}

// Count returns how many rows have been read so far (a query record
// counts as one).
func (lr *Reader) Count() int64 { return lr.n }

// Offset returns the byte offset just past the last cleanly decoded
// record — the truncation point a recovery should cut a torn log back to.
func (lr *Reader) Offset() int64 { return lr.off }

// ReadAll decodes every remaining record.
func ReadAll(r io.Reader) ([]stream.Op, error) {
	lr := NewReader(r)
	var ops []stream.Op
	for {
		op, err := lr.Next()
		if err == io.EOF {
			return ops, nil
		}
		if err != nil {
			return ops, err
		}
		ops = append(ops, op)
	}
}

// Replay streams every remaining record into a tracker, returning the
// number of update operations applied. Queries invoke onQuery if non-nil.
func Replay(r io.Reader, tr stream.Tracker, onQuery func()) (int64, error) {
	lr := NewReader(r)
	applied := int64(0)
	for {
		op, err := lr.Next()
		if err == io.EOF {
			return applied, nil
		}
		if err != nil {
			return applied, err
		}
		switch op.Kind {
		case stream.Insert:
			tr.Insert(op.Value)
			applied++
		case stream.Delete:
			if err := tr.Delete(op.Value); err != nil {
				return applied, fmt.Errorf("oplog: replay row %d: %w", lr.Count()-1, err)
			}
			applied++
		case stream.Query:
			if onQuery != nil {
				onQuery()
			}
		}
	}
}
