// Package wire is amswire, the streaming binary ingest protocol — the
// serving-layer counterpart of the engine's lock-free write path. PR 4
// dropped durable single-writer ingest to ~240 ns/op, but the only road
// onto that path from the network was POST /v1/ingest: one HTTP request,
// one JSON decode, and one read-your-writes drain per batch. amswire
// replaces that with a long-lived TCP stream of length-prefixed binary
// frames: a client pipelines INSERT/DELETE batch frames without waiting,
// the server stages them straight into the absorber and acknowledges
// batch sequence numbers asynchronously, and a FLUSH frame buys the
// read-your-writes barrier only when the loader actually wants it.
//
// The protocol is stdlib-only (the module has zero dependencies and must
// stay buildable offline — no gRPC) and reuses the repository's one
// framing discipline: every frame body is an internal/blob envelope,
// magic|version|payload|CRC32, under blob.MagicWireFrame. On the stream
// each frame is preceded by a uint32 LE byte length, so a reader can
// skip, buffer, or reject a frame before decoding it.
//
// Stream layout (client dials, then strictly: HELLO → WELCOME → data):
//
//	client → server  HELLO    proto version + requested ack window
//	server → client  WELCOME  proto version + engine ingest mode
//	client → server  BATCH*   seq, ins/del, arity-tagged rows, values
//	client → server  FLUSH    force an immediate drain + ACK (read-your-writes)
//	server → client  ACK*     cumulative: every batch seq ≤ Seq is staged,
//	                          applied, and handed to the OS-owned log buffer
//	server → client  ERROR    terminal; names the relation when one is at fault
//	server → client  GOODBYE  daemon shutting down; no further ACKs will come
//
// A BATCH frame has the shape of a version-3 oplog record: a delete
// flag, an arity (1..255) and row-major values, each row
// primary-attribute-first in schema order. A node logs every BATCH, at
// any arity, as exactly one version-3 record in one segment: MaxBatchVals
// is within oplog.MaxRecordVals, and a segment rolls only between
// records, so a torn write keeps all of a batch or none of it. An ACK is
// cumulative and means more than "received": the server drains the
// touched relations through the absorber before acking, so every acked
// batch is applied to the synopses and its oplog records are OS-owned —
// a kill -9 after an ACK cannot lose the batch (the same guarantee an
// HTTP ingest response gives per request, amortized here over a pipeline
// window). DESIGN.md §10 documents the layout, the ack/window semantics,
// and operator tuning.
//
// The client side is one type, Stream: it dials and handshakes within
// DialTimeout, numbers each BATCH and holds it as pending until a
// cumulative ACK covers it, ends on ERROR, GOODBYE, a broken connection
// or an ACK timeout, and hands every un-acked batch back to its owner
// with the cause. Client pools streams with redial; the ingest router
// keeps one stream per node and fails the un-acked suffix over. Server
// is the other side, in front of an engine or the router.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"amstrack/internal/blob"
)

// ProtoVersion is the amswire protocol version carried in HELLO/WELCOME.
// A server rejects a client whose version it does not speak.
const ProtoVersion = 1

// frameVersion is the blob-envelope version of every frame body.
const frameVersion = 1

// MaxFrame caps one frame body's byte length (the uint32 stream prefix):
// large enough for a ~2M-value batch, small enough that a hostile length
// prefix cannot balloon the process. A reader ends the stream on a
// longer frame, so every sender cuts its batches at MaxBatchVals.
const MaxFrame = 16 << 20

// MaxBatchVals bounds one BATCH frame's value payload, leaving room
// under MaxFrame for the header and relation name. wire.Client and the
// router both cut larger batches into frames of at most this many
// values (whole rows).
const MaxBatchVals = (MaxFrame - 1024) / 8

// DefaultWindow is the ack window a client uses when Options.Window is
// zero: up to this many batches may be in flight (sent, not yet acked)
// per connection before InsertBatch blocks.
const DefaultWindow = 64

// MaxArity mirrors the oplog tuple-record bound: row arity is encoded in
// one byte and arity 0 is invalid.
const MaxArity = 255

// Kind discriminates frame payloads.
type Kind uint8

const (
	KindHello Kind = iota + 1
	KindWelcome
	KindBatch
	KindFlush
	KindAck
	KindError
	KindGoodbye
)

// String returns the conventional frame name.
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "HELLO"
	case KindWelcome:
		return "WELCOME"
	case KindBatch:
		return "BATCH"
	case KindFlush:
		return "FLUSH"
	case KindAck:
		return "ACK"
	case KindError:
		return "ERROR"
	case KindGoodbye:
		return "GOODBYE"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Frame is the decoded union of every frame type; Kind says which fields
// are meaningful. One struct (instead of a type per frame) lets readers
// reuse a single Frame — and its Vals backing array — across frames,
// which is what keeps the batch hot path allocation-free.
//
//	HELLO:   Proto, Window
//	WELCOME: Proto, Text (engine ingest mode)
//	BATCH:   Seq, Del, Arity, Relation, Vals (rows×arity values, row-major,
//	         primary attribute first within each row)
//	FLUSH:   Seq (the client's last sent batch seq)
//	ACK:     Seq (cumulative: all batches ≤ Seq are staged + OS-owned)
//	ERROR:   Seq, Relation (may be empty), Text (message)
//	GOODBYE: Text (reason)
type Frame struct {
	Kind     Kind
	Seq      uint64
	Proto    uint32
	Window   uint32
	Del      bool
	Arity    int
	Relation string
	Vals     []uint64
	Text     string
}

// Rows returns the batch's row count (Vals is row-major).
func (f *Frame) Rows() int {
	if f.Arity <= 0 {
		return 0
	}
	return len(f.Vals) / f.Arity
}

// Decode errors beyond the blob envelope's own sentinels.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	ErrBadFrame      = errors.New("wire: malformed frame")
)

// batchFlags bit 0 marks a delete batch; all other bits are reserved and
// rejected on decode so every accepted frame re-encodes byte-identically.
const flagDel = 0x01

// AppendFrame appends f's wire image — uint32 LE length prefix followed
// by the blob-framed body — to dst and returns the extended slice. It is
// the one encoder: append-only, no intermediate buffers, so a caller
// reusing dst encodes a BATCH with zero allocations beyond amortized
// slice growth.
func AppendFrame(dst []byte, f *Frame) []byte {
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix, patched below
	body := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, blob.MagicWireFrame)
	dst = append(dst, frameVersion)
	dst = append(dst, byte(f.Kind))
	switch f.Kind {
	case KindHello:
		dst = binary.LittleEndian.AppendUint32(dst, f.Proto)
		dst = binary.LittleEndian.AppendUint32(dst, f.Window)
	case KindWelcome:
		dst = binary.LittleEndian.AppendUint32(dst, f.Proto)
		dst = appendString(dst, f.Text)
	case KindBatch:
		dst = binary.LittleEndian.AppendUint64(dst, f.Seq)
		var flags byte
		if f.Del {
			flags |= flagDel
		}
		dst = append(dst, flags, byte(f.Arity))
		dst = appendString(dst, f.Relation)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(f.Rows()))
		for _, v := range f.Vals {
			dst = binary.LittleEndian.AppendUint64(dst, v)
		}
	case KindFlush, KindAck:
		dst = binary.LittleEndian.AppendUint64(dst, f.Seq)
	case KindError:
		dst = binary.LittleEndian.AppendUint64(dst, f.Seq)
		dst = appendString(dst, f.Relation)
		dst = appendString(dst, f.Text)
	case KindGoodbye:
		dst = appendString(dst, f.Text)
	default:
		panic(fmt.Sprintf("wire: encoding unknown frame kind %d", f.Kind))
	}
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[body:]))
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-body))
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// EncodeFrame returns f's blob-framed body WITHOUT the stream length
// prefix — the unit the fuzzer round-trips and tests compare.
func EncodeFrame(f *Frame) []byte {
	full := AppendFrame(nil, f)
	return full[4:]
}

// DecodeFrame parses one blob-framed body into f, reusing f.Vals'
// capacity. Corrupt, truncated, foreign-magic, over-long, or
// trailing-byte inputs error (wrapping the blob sentinels or
// ErrBadFrame); an accepted frame re-encodes byte-identically via
// EncodeFrame. Relation and Text are copied out of data, so the caller
// may reuse its read buffer; Vals aliases nothing either.
func DecodeFrame(data []byte, f *Frame) error {
	if len(data) > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(data))
	}
	_, payload, err := blob.Open(blob.MagicWireFrame, frameVersion, data)
	if err != nil {
		return err
	}
	c := blob.NewCursor(payload)
	kb := c.U8()
	*f = Frame{Kind: Kind(kb), Vals: f.Vals[:0]}
	switch f.Kind {
	case KindHello:
		f.Proto = c.U32()
		f.Window = c.U32()
	case KindWelcome:
		f.Proto = c.U32()
		f.Text = c.String()
	case KindBatch:
		f.Seq = c.U64()
		flags := c.U8()
		if flags&^byte(flagDel) != 0 {
			return fmt.Errorf("%w: reserved batch flags %#x", ErrBadFrame, flags)
		}
		f.Del = flags&flagDel != 0
		f.Arity = int(c.U8())
		f.Relation = c.String()
		rows := int(c.U32())
		if err := c.Err(); err != nil {
			return err
		}
		if f.Arity < 1 {
			return fmt.Errorf("%w: batch arity 0", ErrBadFrame)
		}
		if f.Relation == "" {
			return fmt.Errorf("%w: batch without relation", ErrBadFrame)
		}
		n := rows * f.Arity
		if c.Remaining() != 8*n {
			return fmt.Errorf("%w: %d rows × arity %d needs %d value bytes, have %d",
				ErrBadFrame, rows, f.Arity, 8*n, c.Remaining())
		}
		if cap(f.Vals) < n {
			f.Vals = make([]uint64, 0, n)
		}
		f.Vals = f.Vals[:n]
		for i := range f.Vals {
			f.Vals[i] = c.U64()
		}
	case KindFlush, KindAck:
		f.Seq = c.U64()
	case KindError:
		f.Seq = c.U64()
		f.Relation = c.String()
		f.Text = c.String()
	case KindGoodbye:
		f.Text = c.String()
	default:
		return fmt.Errorf("%w: unknown frame kind %d", ErrBadFrame, kb)
	}
	if err := c.Close(); err != nil {
		return err
	}
	return nil
}

// ReadFrame reads one length-prefixed frame body from r into buf
// (growing it as needed) and returns the body slice, which aliases buf.
// io.EOF is returned verbatim only when the stream ends cleanly between
// frames; a tear inside a frame is io.ErrUnexpectedEOF. It is exported
// for tests elsewhere that stand in for a server; outside this package
// no program code reads frames, since Stream is the client side.
func ReadFrame(r io.Reader, buf *[]byte) ([]byte, error) {
	var lenb [4]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(lenb[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: length prefix %d", ErrFrameTooLarge, n)
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return b, nil
}
