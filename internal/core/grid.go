package core

import "amstrack/internal/hash"

// Grid is the bucketed counter grid behind both Fast-AMS synopses: rows
// of s1 counters, each row with its own tabulation hash, so an update
// touches one counter per row (FastTugOfWar gives the layout and the
// estimator). FastTugOfWar reads a grid as §2.2's self-join sketch and
// join.FastTWSignature reads one as §4.3's join signature; both answer
// from RowProducts, of a grid with itself or with another grid of the
// same shape and row hashes. Each owner derives its row hashes from its
// own seed stream, so a sketch and a signature under one master seed stay
// independent, and keeps its own blob format and its own shape check
// before AddGrid. RowProducts, AddGrid and LoadGrid are functions, not
// methods, so the types that embed a Grid export no raw counter write
// and no estimator terms beyond their own.
type Grid struct {
	rows []hash.Tab4x8 // row hashes, eight rows per group; read, never written
	s1   int
	z    []int64 // counters, row-major: row j occupies [j*s1, (j+1)*s1)
	n    int64   // current multiset size
}

// NewGrid returns an empty grid with one row per lane of rows
// (hash.NewTab4Rows, at least one group), each row as wide as the groups'
// bucket count. Grids may share one rows slice.
func NewGrid(rows []hash.Tab4x8) Grid {
	n := 0
	for _, g := range rows {
		n += g.Lanes()
	}
	s1 := rows[0].Buckets()
	return Grid{rows: rows, s1: s1, z: make([]int64, n*s1)}
}

// update adds w·ε_j(v) to v's counter in row j, for every v in vs and
// every row j: the one counter write behind every update. Each group of
// eight rows reads a key's bucket and sign in all eight rows from one
// hash evaluation (hash.Tab4x8.AddSigns).
func (g *Grid) update(vs []uint64, w int64) {
	z := g.z
	for _, grp := range g.rows {
		grp.AddSigns(z, vs, w)
		z = z[grp.Lanes()*g.s1:]
	}
}

// Insert adds one occurrence of v. O(rows) time, independent of s1.
func (g *Grid) Insert(v uint64) {
	g.update([]uint64{v}, 1)
	g.n++
}

// Delete removes one occurrence of v. Exact, by linearity; validity of
// the op sequence is the caller's contract.
func (g *Grid) Delete(v uint64) error {
	g.update([]uint64{v}, -1)
	g.n--
	return nil
}

// InsertBatch adds every value in vs through the same kernel as Insert:
// one hash per value per group of eight rows, two values at a time, then
// one counter touch per row.
func (g *Grid) InsertBatch(vs []uint64) {
	g.update(vs, 1)
	g.n += int64(len(vs))
}

// DeleteBatch removes every value in vs.
func (g *Grid) DeleteBatch(vs []uint64) error {
	g.update(vs, -1)
	g.n -= int64(len(vs))
	return nil
}

// SetFrequencies loads the grid directly from a frequency vector,
// replacing the current state. Bit-identical to streaming every occurrence
// (linearity); one hash evaluation per (group, distinct value).
func (g *Grid) SetFrequencies(freq map[uint64]int64) {
	clear(g.z)
	g.n = 0
	for v, f := range freq {
		g.update([]uint64{v}, f)
		g.n += f
	}
}

// Len returns the current multiset size implied by the update stream.
func (g *Grid) Len() int64 { return g.n }

// MemoryWords returns rows·s1: one word per counter, the paper's storage
// unit. The tabulation tables (128 KiB per group of eight rows when s1 is
// a power of two up to 2^15, else 512 KiB) are not counted: they do not
// scale with s1, the accuracy knob, and hash.NewTab4Rows shares them among
// every grid on the same seeds in the process.
func (g *Grid) MemoryWords() int { return len(g.z) }

// Counters returns a copy of the raw counters (row-major, row j at
// [j*s1, (j+1)*s1)).
func (g *Grid) Counters() []int64 {
	out := make([]int64, len(g.z))
	copy(out, g.z)
	return out
}

// RowProducts returns the per-row inner products Σ_b Z_a[j][b]·Z_b[j][b]
// of two grids of one shape and one set of row hashes: with a == b the
// rows' Σ_b Z², each an unbiased self-join estimate, and otherwise the
// rows' unbiased join-size estimates. It only reads both grids.
func RowProducts(a, b *Grid) []float64 {
	s1 := a.s1
	out := make([]float64, len(a.z)/s1)
	for j := range out {
		x := a.z[j*s1 : (j+1)*s1]
		y := b.z[j*s1 : (j+1)*s1][:len(x)]
		sum := 0.0
		for i, v := range x {
			sum += float64(v) * float64(y[i])
		}
		out[j] = sum
	}
	return out
}

// AddGrid adds src's counters and length into dst: by linearity, the
// grid of the concatenated streams. The two must share one shape and one
// set of row hashes; each owner checks that first. The loop runs over
// local slices of equal length, so it pays no per-counter bounds check or
// field reload: every relation read adds one grid per shard.
func AddGrid(dst, src *Grid) {
	z, o := dst.z, src.z[:len(dst.z)]
	for k := range z {
		z[k] += o[k]
	}
	dst.n += src.n
}

// LoadGrid replaces g's counters with z (row-major, g's shape) and its
// length with n: a decoder's load.
func LoadGrid(g *Grid, n int64, z []int64) {
	copy(g.z, z)
	g.n = n
}
