package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"amstrack/internal/xrand"
)

// goldenDefaultBits pins the answers amsd gives at its default shape: a
// k = 1024 signature of 8 rows × 128 buckets, a 1024 × 8 sketch and
// seed 42. It is the one shape whose grids fill whole eight-row hash
// groups, so it pins the lane order of the grouped hash kernel; the
// other golden tests run 2- and 4-row grids. goldenDefaultBundles pins
// the SHA-256 of each relation's exported bundle bytes.
var goldenDefaultBits = map[string]uint64{
	"selfjoin/sketch":      0x40f89ba000000000,
	"selfjoin/signature":   0x40f7f29000000000,
	"selfjoin/skimmed":     0x40f861b000000000,
	"join/sketch/estimate": 0x40f6573c00000000,
	"join/sketch/sigma":    0x40b1114dcd5af686,
	"join/sketch/fact11":   0x40f8244800000000,
	"join/sketch/sjf":      0x40f89ba000000000,
	"join/sketch/sjg":      0x40f7acf000000000,
	"join/skim/estimate":   0x40f6bdea00000000,
	"join/skim/sigma":      0x40b1239c1b9c4851,
	"join/skim/fact11":     0x40f83d2000000000,
	"join/skim/sjf":        0x40f861b000000000,
	"join/skim/sjg":        0x40f8189000000000,
}

var goldenDefaultBundles = map[string]string{
	"f":  "a96e23139d86d8e262d5581ac9f809d330e20d3c0e826a710b8e526b0db0fa6e",
	"g":  "282bfdd68e9714fb3a1b106430ab362cd26178b470e3bbcf3e8860031577dfb4",
	"fs": "5fef4602523eb61abf3d500973025e2bdc6257f266d945deb13930bfcba4f482",
	"gs": "882ea16659bf1e500c5301a45c12586e66518079a0332084e3c715e1252b2f48",
}

func TestDefaultShapeGoldenBits(t *testing.T) {
	opts := Options{SignatureWords: 1024, Seed: 42}
	got := map[string]float64{}
	selfJoin := func(rel *Relation, want string) {
		sj, estimator := rel.SelfJoinEstimateDetail()
		if estimator != want {
			t.Errorf("%s: self-join estimator %q, want %q", rel.Name(), estimator, want)
		}
		got["selfjoin/"+estimator] = sj
	}
	pair := func(e *Engine, f, g, p string) {
		je, err := e.EstimateJoin(f, g)
		if err != nil {
			t.Fatal(err)
		}
		got[p+"estimate"], got[p+"sigma"], got[p+"fact11"] = je.Estimate, je.Sigma, je.Fact11
		got[p+"sjf"], got[p+"sjg"] = je.SJF, je.SJG
	}

	bareOpts := opts
	bareOpts.NoSketch = true
	bare, err := New(bareOpts)
	if err != nil {
		t.Fatal(err)
	}
	selfJoin(goldenAnswerRelation(t, bare, xrand.New(42), "f", Schema{}), "signature")

	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if o := e.Options(); o.SignatureRows != 8 || o.SketchS1 != 1024 || o.SketchS2 != 8 {
		t.Fatalf("default shape %d rows, sketch %dx%d; want 8 rows, sketch 1024x8", o.SignatureRows, o.SketchS1, o.SketchS2)
	}
	r := xrand.New(42)
	selfJoin(goldenAnswerRelation(t, e, r, "f", Schema{}), "sketch")
	goldenAnswerRelation(t, e, r, "g", Schema{})
	pair(e, "f", "g", "join/sketch/")
	selfJoin(goldenAnswerRelation(t, e, r, "fs", Schema{SkimHitters: 24}), "skimmed")
	goldenAnswerRelation(t, e, r, "gs", Schema{SkimHitters: 24})
	pair(e, "fs", "gs", "join/skim/")

	if len(got) != len(goldenDefaultBits) {
		t.Errorf("computed %d answers, pinned %d", len(got), len(goldenDefaultBits))
	}
	for name, v := range got {
		want, ok := goldenDefaultBits[name]
		if !ok {
			t.Errorf("%s = %v (%#x): not pinned", name, v, math.Float64bits(v))
		} else if bits := math.Float64bits(v); bits != want {
			t.Errorf("%s = %v (%#x), pinned %v (%#x)", name, v, bits, math.Float64frombits(want), want)
		}
	}
	for name, want := range goldenDefaultBundles {
		b, err := e.ExportRelation(name)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("bundle %s: sha256 %s, pinned %s", name, got, want)
		}
	}
}
