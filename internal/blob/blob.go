// Package blob is the one binary-framing codec every serialized synopsis
// in this repository shares. Before it existed, the tug-of-war sketches,
// the join signatures, and the catalog checkpoint each hand-rolled the
// same magic/CRC envelope and the same offset arithmetic — three decoders,
// three chances to get a bounds check wrong. The codec centralizes both
// halves:
//
//   - the FRAME: magic (uint32 LE) | version (1 byte) | payload | CRC32
//     of everything preceding it. Seal produces it, Open verifies it. The
//     magic identifies WHAT is inside (see the registry below), the
//     version lets a format evolve without changing its magic, and the
//     CRC turns any torn write or bit flip into a clean error instead of
//     a garbage synopsis.
//
//   - the PAYLOAD accessors: Builder appends fixed-width little-endian
//     fields and length-prefixed byte strings; Cursor reads them back
//     with sticky-error bounds checking, so a decoder is a straight-line
//     sequence of reads followed by a single error check — no offset
//     arithmetic, no per-field truncation branches.
//
// Frames are self-delimiting only via the outer length (len(data)), which
// callers always have: blobs live inside checkpoint files, HTTP bodies,
// or length-prefixed fields of other blobs.
package blob

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// The magic registry. Every serialized type in the module draws its magic
// from here so no two formats can collide (historically core's fast
// tug-of-war and join's flat signature shared 0xA0517002 — harmless only
// because their payload lengths differed).
const (
	MagicTugOfWar     uint32 = 0xA0517001 // core.TugOfWar (§2.2 flat sketch)
	MagicFastTugOfWar uint32 = 0xA0517002 // core.FastTugOfWar (Fast-AMS)
	MagicEngine       uint32 = 0xA0517003 // engine.Engine checkpoint (ex-catalog)
	MagicTWSignature  uint32 = 0xA0517005 // join.TWSignature (flat k-TW)
	MagicFastTWSig    uint32 = 0xA0517006 // join.FastTWSignature (bucketed k-TW)
	MagicChainEndSig  uint32 = 0xA0517007 // join.ChainEndSignature (§5 chain end)
	MagicChainMidSig  uint32 = 0xA0517008 // join.ChainMiddleSignature (§5 chain middle)
	MagicRelBundle    uint32 = 0xA0517009 // engine.RelationBundle (multi-node exchange)
	MagicChainBundle  uint32 = 0xA051700A // retired: engine.ChainBundle's own frame (chain sections ride in bundles); never reuse
	MagicWireFrame    uint32 = 0xA051700B // wire.Frame (amswire streaming-ingest protocol)
	MagicSpaceSaving  uint32 = 0xA051700C // core.SpaceSaving (heavy-hitter table for skimmed synopses)
)

// PeekMagic returns the frame magic of data without verifying the frame
// (dispatchers use it to route a blob to the right decoder, which then
// re-verifies CRC and version). ok is false when data is too short to
// carry a magic.
func PeekMagic(data []byte) (magic uint32, ok bool) {
	if len(data) < minSize {
		return 0, false
	}
	return binary.LittleEndian.Uint32(data[:4]), true
}

const (
	headerSize  = 4 + 1 // magic + version
	trailerSize = 4     // CRC32 of header+payload
	minSize     = headerSize + trailerSize
)

// The sentinel errors Open reports. They wrap the detail (expected and
// found values) so callers can both errors.Is-match and print diagnosis.
var (
	ErrTooShort = errors.New("blob: too short")
	ErrChecksum = errors.New("blob: checksum mismatch")
	ErrMagic    = errors.New("blob: magic mismatch")
	ErrVersion  = errors.New("blob: unsupported version")
	// ErrTruncated is the Cursor's sticky error: some field read ran past
	// the end of the payload.
	ErrTruncated = errors.New("blob: truncated payload")
	// ErrTrailing is reported by Cursor.Close when decodable bytes remain
	// after the last expected field — a symptom of a length/field mismatch
	// that silent decoders would misattribute.
	ErrTrailing = errors.New("blob: trailing bytes")
)

// Seal frames payload as magic | version | payload | CRC32.
func Seal(magic uint32, version uint8, payload []byte) []byte {
	buf := make([]byte, 0, headerSize+len(payload)+trailerSize)
	buf = binary.LittleEndian.AppendUint32(buf, magic)
	buf = append(buf, version)
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// Open verifies the frame around data and returns the contained version
// and payload. maxVersion is the newest version the caller understands;
// anything above it is rejected (version 0 is reserved as invalid so a
// zeroed header cannot masquerade as v0 of anything).
//
// The CRC is checked BEFORE the magic: a corrupted blob should report
// corruption, not pretend to be a different type.
func Open(magic uint32, maxVersion uint8, data []byte) (version uint8, payload []byte, err error) {
	if len(data) < minSize {
		return 0, nil, fmt.Errorf("%w: %d bytes, need at least %d", ErrTooShort, len(data), minSize)
	}
	body, sum := data[:len(data)-trailerSize], binary.LittleEndian.Uint32(data[len(data)-trailerSize:])
	if crc32.ChecksumIEEE(body) != sum {
		return 0, nil, ErrChecksum
	}
	if got := binary.LittleEndian.Uint32(body); got != magic {
		return 0, nil, fmt.Errorf("%w: found %#x, want %#x", ErrMagic, got, magic)
	}
	version = body[4]
	if version == 0 || version > maxVersion {
		return 0, nil, fmt.Errorf("%w: version %d, support 1..%d", ErrVersion, version, maxVersion)
	}
	return version, body[headerSize:], nil
}

// Builder accumulates a payload field by field, then Seals it. The zero
// value is not usable; construct with NewBuilder.
type Builder struct {
	magic   uint32
	version uint8
	buf     []byte
}

// NewBuilder starts a payload for the given frame identity. sizeHint is
// the expected payload size (capacity preallocation only).
func NewBuilder(magic uint32, version uint8, sizeHint int) *Builder {
	return &Builder{magic: magic, version: version, buf: make([]byte, 0, sizeHint)}
}

// U8 appends a single byte (discriminator tags, small enums).
func (b *Builder) U8(v uint8) { b.buf = append(b.buf, v) }

// U32 appends a little-endian uint32.
func (b *Builder) U32(v uint32) { b.buf = binary.LittleEndian.AppendUint32(b.buf, v) }

// U64 appends a little-endian uint64.
func (b *Builder) U64(v uint64) { b.buf = binary.LittleEndian.AppendUint64(b.buf, v) }

// I64 appends an int64 as its two's-complement uint64 image.
func (b *Builder) I64(v int64) { b.U64(uint64(v)) }

// I64s appends a counter vector: the caller is expected to have recorded
// its length elsewhere (typically implied by config fields).
func (b *Builder) I64s(vs []int64) {
	for _, v := range vs {
		b.I64(v)
	}
}

// Bytes appends a uint32 length prefix followed by raw bytes.
func (b *Builder) Bytes(p []byte) {
	b.U32(uint32(len(p)))
	b.buf = append(b.buf, p...)
}

// String appends a length-prefixed string.
func (b *Builder) String(s string) {
	b.U32(uint32(len(s)))
	b.buf = append(b.buf, s...)
}

// Seal frames the accumulated payload and returns the blob.
func (b *Builder) Seal() []byte { return Seal(b.magic, b.version, b.buf) }

// Cursor reads a payload back with sticky-error bounds checking: once a
// read runs out of bytes every later read returns zero values, and Err
// (or Close) reports the truncation. This is what makes "covered by a
// single error check" decoders safe against hostile lengths.
type Cursor struct {
	buf []byte
	off int
	err error
}

// NewCursor wraps a payload returned by Open.
func NewCursor(payload []byte) *Cursor { return &Cursor{buf: payload} }

func (c *Cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || c.off+n > len(c.buf) || c.off+n < c.off {
		c.err = fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, c.off, len(c.buf))
		return nil
	}
	p := c.buf[c.off : c.off+n]
	c.off += n
	return p
}

// U8 reads a single byte.
func (c *Cursor) U8() uint8 {
	p := c.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// U32 reads a little-endian uint32.
func (c *Cursor) U32() uint32 {
	p := c.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// U64 reads a little-endian uint64.
func (c *Cursor) U64() uint64 {
	p := c.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// I64 reads an int64.
func (c *Cursor) I64() int64 { return int64(c.U64()) }

// Int reads a uint64 that must fit a non-negative int (config fields such
// as counter dimensions); out-of-range values poison the cursor.
func (c *Cursor) Int() int {
	v := c.U64()
	if c.err == nil && v > math.MaxInt32 {
		// Dimensions beyond 2^31 are hostile headers, not real configs:
		// rejecting here keeps later make() calls from attempting to
		// allocate petabytes before the length cross-check runs.
		c.err = fmt.Errorf("%w: dimension %d out of range", ErrTruncated, v)
		return 0
	}
	return int(v)
}

// I64s reads exactly n int64 counters.
func (c *Cursor) I64s(n int) []int64 {
	p := c.take(8 * n)
	if p == nil {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return out
}

// Bytes reads a uint32 length prefix and that many bytes. The returned
// slice aliases the payload; callers that retain it must copy.
func (c *Cursor) Bytes() []byte {
	n := c.U32()
	return c.take(int(n))
}

// String reads a length-prefixed string.
func (c *Cursor) String() string { return string(c.Bytes()) }

// Remaining returns how many unread payload bytes are left (0 once the
// cursor is poisoned).
func (c *Cursor) Remaining() int {
	if c.err != nil {
		return 0
	}
	return len(c.buf) - c.off
}

// Err returns the sticky error, if any.
func (c *Cursor) Err() error { return c.err }

// Close finishes a decode: it returns the sticky error if any read was
// truncated, and ErrTrailing if unread bytes remain.
func (c *Cursor) Close() error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.buf) {
		return fmt.Errorf("%w: %d bytes after last field", ErrTrailing, len(c.buf)-c.off)
	}
	return nil
}
