package experiments

import (
	"strings"
	"testing"
)

// skimRatioZipf15 is the recorded zipf(1.5) skimmed ÷ plain self-join
// relative error at the configuration below (0.00018059387205994319 ÷
// 0.00041756513825911781).
const skimRatioZipf15 = 0.43249269518250977

// TestSkimAccZipfRegression is the skimming accuracy gate: at equal
// total memory (3072 words, 96 hitters, 5 trials from seed 1) the
// skimmed estimator must beat the plain sketch on the skewed zipf(1.5)
// set — self-join AND join — and its self-join error ratio may not
// regress more than 50% from the recorded one. The experiment is
// deterministic, so the recorded ratio is what this configuration
// reproduces; if this fails, the skim decomposition has stopped paying
// for its table.
func TestSkimAccZipfRegression(t *testing.T) {
	r, err := RunSkimAcc([]string{"zipf1.5"}, 3072, 6, 96, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	ratio := r.SkimRelErrZipf15 / r.UnskimRelErrZipf15
	if !(ratio < 1) {
		t.Fatalf("skimmed zipf1.5 self-join relerr %.4g not below unskimmed %.4g",
			r.SkimRelErrZipf15, r.UnskimRelErrZipf15)
	}
	if ratio > 1.5*skimRatioZipf15 {
		t.Fatalf("skimmed/plain zipf1.5 self-join relerr ratio %.4g regressed past 1.5 × the recorded %.4g",
			ratio, skimRatioZipf15)
	}
	row := r.Datasets[0]
	if row.SkimJoinErr >= row.UnskimJoinErr {
		t.Fatalf("skimmed zipf1.5 join relerr %.4g not below unskimmed %.4g",
			row.SkimJoinErr, row.UnskimJoinErr)
	}
	if row.HittersUsed < 1 || row.HittersUsed > 96 {
		t.Fatalf("hitters used = %d, want within (0, 96]", row.HittersUsed)
	}
}

// TestSkimAccOutput smoke-tests the table: it names every dataset.
func TestSkimAccOutput(t *testing.T) {
	r, err := RunSkimAcc([]string{"zipf1.5"}, 768, 6, 24, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tab := r.Table().String(); !strings.Contains(tab, "zipf1.5") {
		t.Fatalf("table missing dataset row:\n%s", tab)
	}
}

// TestSkimAccRejectsBadBudgets pins the parameter validation.
func TestSkimAccRejectsBadBudgets(t *testing.T) {
	cases := []struct{ k, s2, hitters, trials int }{
		{3072, 6, 96, 0}, // no trials
		{3070, 6, 96, 1}, // rows don't divide budget
		{3072, 6, 95, 1}, // table words don't divide into rows
		{288, 6, 96, 1},  // table eats the whole budget
		{3072, 6, 0, 1},  // no hitter slots
	}
	for _, c := range cases {
		if _, err := RunSkimAcc([]string{"zipf1.5"}, c.k, c.s2, c.hitters, c.trials, 1); err == nil {
			t.Fatalf("RunSkimAcc(%+v) accepted invalid parameters", c)
		}
	}
}
