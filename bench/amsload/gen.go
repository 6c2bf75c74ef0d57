package main

import (
	"math"

	"amstrack/internal/xrand"
)

// The load generator. Every stream is a rotation of pre-generated
// batches drawn from --seed, so the timed loops only index slices, and
// the ground truth is a dense per-value count array the generator keeps
// from the batches it knows were acked — computed here, outside the
// timed phase, without any code of the system under test.

const (
	batchRows    = 512     // rows per wire InsertBatch
	groupBatches = 8       // batches per commit group (then Flush)
	domain       = 1 << 20 // value domain of the single-attribute streams
	chainDomain  = 1 << 12 // attribute domain of the chain triple
)

// streamSeed derives an independent generator seed per (workload, stream).
func streamSeed(seed uint64, workload string, stream int) uint64 {
	h := xrand.Mix64(seed ^ 0x616d736c6f6164) // "amsload"
	for _, c := range workload {
		h = xrand.Mix64(h ^ uint64(c))
	}
	return xrand.Mix64(h ^ uint64(stream+1))
}

// drawFunc returns one value per call.
type drawFunc func() uint64

// shuffled draws every value of [0, n) once in random order, then
// again in a fresh order.
func shuffled(seed uint64, n int) drawFunc {
	r := xrand.New(seed)
	var perm []int
	return func() uint64 {
		if len(perm) == 0 {
			perm = r.Perm(n)
		}
		v := perm[0]
		perm = perm[1:]
		return uint64(v)
	}
}

// zipf draws values 0..n-1 with exponent alpha; value 0 is the heaviest,
// so two zipf streams over one domain share their heavy hitters and
// their join is large.
func zipf(seed uint64, alpha float64, n int) drawFunc {
	z := xrand.NewZipf(xrand.New(seed), alpha, n)
	return func() uint64 { return uint64(z.Next() - 1) }
}

// rotation pre-generates nb batches of rows values each.
func rotation(draw drawFunc, nb, rows int) [][]uint64 {
	flat := make([]uint64, nb*rows)
	for i := range flat {
		flat[i] = draw()
	}
	out := make([][]uint64, nb)
	for i := range out {
		out[i] = flat[i*rows : (i+1)*rows : (i+1)*rows]
	}
	return out
}

// counts is a dense frequency vector over [0, len).
type counts []int64

func (c counts) add(vals []uint64, sign int64) {
	for _, v := range vals {
		c[v] += sign
	}
}

func (c counts) rows() int64 {
	var n int64
	for _, f := range c {
		n += f
	}
	return n
}

func (c counts) selfJoin() float64 {
	var s float64
	for _, f := range c {
		s += float64(f) * float64(f)
	}
	return s
}

func (c counts) join(o counts) float64 {
	var s float64
	for i, f := range c {
		s += float64(f) * float64(o[i])
	}
	return s
}

// pairCounts is the sparse frequency vector of the chain middle (a, b).
type pairCounts map[[2]uint64]int64

// chainJoin is |F ⋈a G ⋈b H| = Σ_(a,b) f(a)·g(a,b)·h(b).
func chainJoin(f counts, g pairCounts, h counts) float64 {
	var s float64
	for ab, n := range g {
		s += float64(f[ab[0]]) * float64(n) * float64(h[ab[1]])
	}
	return s
}

// selfJoinSigma is the one-σ bound of a Fast-AMS self-join estimate with
// s1 buckets per row: Var(X_j) ≤ 2·SJ²/s1 for each row, and the median
// over rows only tightens it.
func selfJoinSigma(sj float64, s1 int) float64 {
	return sj * math.Sqrt(2/float64(s1))
}
