package hash

import "math/bits"

// The batch sign kernel evaluates a whole family of FourWise members over
// many keys and returns per-member sign sums, for sketches whose every
// counter takes a sign of every key (the §5 chain signatures: k members
// per key). It computes exactly what Sign does, member by member:
//
//   - Each key's powers x, x², x³ mod p are computed once per key and
//     shared by all members, where Horner's rule recomputes them per
//     member.
//   - A member's h(x) = a3·x³ + a2·x² + a1·x + a0 is summed from three
//     products with the coefficients shifted left by 3. For a, y < 2^61,
//     (a<<3)·y = hi·2^64 + lo with lo a multiple of 8, so
//     a·y = hi·2^61 + lo>>3 ≡ hi + lo>>3 (mod p), with both parts below
//     2^61. The seven terms sum below 7·2^61 < 2^64, so one fold and one
//     conditional subtract give the canonical residue Eval returns.
//   - Members run in the outer loop and keys in the inner one, so a
//     member's coefficients stay in registers across a block of keys.
//
// Key powers for a block of keys live on the kernel's stack: callers and
// the sketches they update hold no scratch.

// kernelBlock is how many keys the kernel reduces to powers at a time.
const kernelBlock = 64

// powers holds a key's canonical powers x, x², x³ mod p.
type powers struct{ x1, x2, x3 uint64 }

// powersOf reduces x into GF(p) and returns its first three powers.
func powersOf(x uint64) powers {
	x1 := reduce61(x)
	x2 := mulMod61(x1, x1)
	return powers{x1, x2, mulMod61(x2, x1)}
}

// evalShifted returns h(x) ∈ [0, p) from x's powers, given the member's
// constant a0 and its other coefficients shifted left by 3 (c_i = a_i<<3).
// It equals h.Eval(x).
func evalShifted(a0, c1, c2, c3 uint64, pw *powers) uint64 {
	hi, lo := bits.Mul64(c1, pw.x1)
	s := a0 + hi + lo>>3
	hi, lo = bits.Mul64(c2, pw.x2)
	s += hi + lo>>3
	hi, lo = bits.Mul64(c3, pw.x3)
	s += hi + lo>>3
	r := (s & MersennePrime61) + (s >> 61)
	if r >= MersennePrime61 {
		r -= MersennePrime61
	}
	return r
}

// fillPowers writes the powers of xs[:len(dst)] into dst.
func fillPowers(dst []powers, xs []uint64) {
	xs = xs[:len(dst)]
	for i, x := range xs {
		dst[i] = powersOf(x)
	}
}

// oddCount returns how many of the block's keys h maps to an odd
// residue.
func (h FourWise) oddCount(blk []powers) int64 {
	a0, c1, c2, c3 := h.a0, h.a1<<3, h.a2<<3, h.a3<<3
	var odd uint64
	for i := range blk {
		odd += evalShifted(a0, c1, c2, c3, &blk[i]) & 1
	}
	return int64(odd)
}

// diffParity returns how many of the block's key pairs f and g map to
// residues of different parity.
func diffParity(f, g FourWise, ba, bb []powers) int64 {
	bb = bb[:len(ba)]
	fa0, fc1, fc2, fc3 := f.a0, f.a1<<3, f.a2<<3, f.a3<<3
	ga0, gc1, gc2, gc3 := g.a0, g.a1<<3, g.a2<<3, g.a3<<3
	var diff uint64
	for i := range ba {
		ra := evalShifted(fa0, fc1, fc2, fc3, &ba[i])
		rb := evalShifted(ga0, gc1, gc2, gc3, &bb[i])
		diff += (ra ^ rb) & 1
	}
	return int64(diff)
}

// SignSums adds w·Σ_i fns[m].Sign(xs[i]) to sums[m] for every member m:
// with w = +1 the keys are inserted into a counter per member, with
// w = -1 they are deleted. A member's sign sum over n keys is 2·odd − n,
// odd being the number of keys it maps to an odd residue. sums must be
// at least len(fns) long.
func SignSums(fns []FourWise, xs []uint64, w int64, sums []int64) {
	sums = sums[:len(fns)]
	var pw [kernelBlock]powers
	for len(xs) > 0 {
		blk := pw[:min(len(xs), kernelBlock)]
		fillPowers(blk, xs)
		xs = xs[len(blk):]
		n := int64(len(blk))
		for m, h := range fns {
			sums[m] += w * (2*h.oddCount(blk) - n)
		}
	}
}

// PairSignSums adds w·Σ_i f[m].Sign(as[i])·g[m].Sign(bs[i]) to sums[m]
// for every member index m: the sign of a key pair is the product of its
// two members' signs, as in a middle chain signature. A member pair's sum
// over n key pairs is n − 2·diff, diff being the number of pairs whose
// residues differ in parity. f and g must be equally long, as must as and
// bs; sums must be at least len(f) long.
func PairSignSums(f, g []FourWise, as, bs []uint64, w int64, sums []int64) {
	if len(f) != len(g) || len(as) != len(bs) {
		panic("hash: PairSignSums length mismatch")
	}
	sums = sums[:len(f)]
	var pa, pb [kernelBlock]powers
	for len(as) > 0 {
		n := min(len(as), kernelBlock)
		ba, bb := pa[:n], pb[:n]
		fillPowers(ba, as)
		fillPowers(bb, bs)
		as, bs = as[n:], bs[n:]
		for m, hf := range f {
			sums[m] += w * (int64(n) - 2*diffParity(hf, g[m], ba, bb))
		}
	}
}
