package core

// Skimmed self-join estimation (Rafiei–Deng / "skimmed sketches"): split
// the frequency vector f = f̂ + r, where f̂ is the heavy-hitter table's
// deterministic estimate (supported on its tracked values) and r the
// residual, and estimate
//
//	SJ = Σ f̂² + [cross + tail]
//
// with the exact part computed from the table and the bracket from the
// sketch. The sketch here is INGEST-COMPLETE — every update flowed into
// it, skimmed or not — so the bracket telescopes per row by linearity:
//
//	X_j(S) − X_j(Ŝ) = X_j(r) + 2⟨z(f̂), z(r)⟩_j
//
// where Ŝ = SetFrequencies(f̂) is a scratch sketch from the same family.
// Each row term Σf̂² + X_j(S) − X_j(Ŝ) is an unbiased estimator of SJ for
// ANY deterministic f̂ (f̂ is a function of the stream alone, independent
// of the hash draws), so heavy-hitter inaccuracy only costs variance,
// never bias. When f̂ captures the big frequencies the residual counters
// are small and the variance — driven by SJ(r)² instead of SJ(f)² —
// collapses, which is the whole point on zipf data.

// SkimmedEstimate returns the skimmed self-join estimate from an
// ingest-complete grid — a sketch's, or a signature's — and its
// relation's heavy-hitter table: the median over rows of
// Σf̂² + X_j(S) − X_j(Ŝ), with Ŝ built on the grid's own row hashes. f̂ is
// the table's GUARANTEED mass (count − err, see SkimFrequencies):
// skimming only what is certainly there keeps the residual r = f − f̂
// nonnegative and small, so on unskewed streams — where the table
// guarantees nothing — the estimator degrades to the plain sketch instead
// of paying variance for inflated table counts.
func SkimmedEstimate(g *Grid, hh *SpaceSaving) float64 {
	freq := hh.SkimFrequencies()
	exact := 0.0
	for _, f := range freq {
		exact += float64(f) * float64(f)
	}
	scratch := NewGrid(g.rows)
	scratch.SetFrequencies(freq)
	sums, skim := RowProducts(g, g), RowProducts(&scratch, &scratch)
	for j := range sums {
		sums[j] = exact + sums[j] - skim[j]
	}
	return Median(sums)
}
