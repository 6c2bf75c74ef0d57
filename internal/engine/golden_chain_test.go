package engine

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"amstrack/internal/hash"
	"amstrack/internal/xrand"
)

// goldenChainKeys are the join-attribute values that stress the four-wise
// family's field reduction: the ends of GF(2^61-1), its multiples, and
// keys at and above 2^61, where a kernel that aliased or truncated keys
// would part ways with FourWise.Eval.
var goldenChainKeys = []uint64{
	0, 1,
	hash.MersennePrime61 - 1, hash.MersennePrime61, hash.MersennePrime61 + 1,
	2 * hash.MersennePrime61, 1 << 61, 1 << 63, 1<<64 - 1,
}

// goldenChainKey draws a key from a mix of small values (so tuples repeat
// and deletes cancel), the edge keys above, and full 64-bit values.
func goldenChainKey(r *xrand.Rand) uint64 {
	switch r.Uint64n(4) {
	case 0:
		return r.Uint64n(48)
	case 1:
		return goldenChainKeys[r.Uint64n(uint64(len(goldenChainKeys)))]
	default:
		return r.Uint64()
	}
}

// TestChainGoldenBytes pins the counters of every chain synopsis kind —
// A-side and B-side ends and middles — under 64-bit keys (including keys
// at and above 2^61) and a delete wave, fed through per-row and batch
// ingest alike. The fixtures under testdata/ were generated by the
// per-row Horner evaluation that predates the batch sign kernel, so any
// change to how chain signs are computed must reproduce its bytes
// exactly. The same relations are then reopened from checkpoint plus log
// tail, and the replayed bundles must match the live ones. Regenerate
// (only when a deliberate framing change is being made) with
//
//	AMSTRACK_UPDATE_GOLDEN=1 go test -run TestChainGoldenBytes ./internal/engine
func TestChainGoldenBytes(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SignatureWords: 64, SignatureRows: 2, ChainWords: 96, Seed: 4321, SketchS1: 32, SketchS2: 2, Shards: 4, Dir: dir}
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	ends, err := e.DefineSchema("ends", Schema{Attrs: []string{"a", "b"}, EndA: []string{"a"}, EndB: []string{"b"}})
	if err != nil {
		t.Fatal(err)
	}
	mid, err := e.DefineSchema("mid", Schema{
		Attrs:  []string{"a", "b", "c"},
		EndB:   []string{"c"},
		Middle: [][2]string{{"a", "b"}, {"c", "a"}},
	})
	if err != nil {
		t.Fatal(err)
	}

	r := xrand.New(11)
	rows := func(n, arity int) [][]uint64 {
		out := make([][]uint64, n)
		for i := range out {
			out[i] = make([]uint64, arity)
			for j := range out[i] {
				out[i][j] = goldenChainKey(r)
			}
		}
		return out
	}
	endRows, midRows := rows(700, 2), rows(700, 3)
	// Every edge key on every attribute at least once.
	for _, k := range goldenChainKeys {
		endRows = append(endRows, []uint64{k, k ^ 1})
		midRows = append(midRows, []uint64{k, 1<<64 - 1 - k, k})
	}
	ends.InsertTupleBatch(endRows[:500])
	mid.InsertTupleBatch(midRows[:500])
	for _, row := range endRows[500:] {
		ends.InsertTuple(row...)
	}
	for _, row := range midRows[500:] {
		mid.InsertTuple(row...)
	}
	// Delete wave: a batch, then single rows.
	if err := ends.DeleteTupleBatch(endRows[:150]); err != nil {
		t.Fatal(err)
	}
	if err := mid.DeleteTupleBatch(midRows[:150]); err != nil {
		t.Fatal(err)
	}
	for i := 150; i < 200; i++ {
		if err := ends.DeleteTuple(endRows[i]...); err != nil {
			t.Fatal(err)
		}
		if err := mid.DeleteTuple(midRows[i]...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(filepath.Join(dir, "checkpoint.blob"))
	if err != nil {
		t.Fatal(err)
	}

	// A log tail past the checkpoint: more inserts and deletes, so the
	// reopen below replays chain tuples of both kinds.
	tailEnds, tailMid := rows(120, 2), rows(120, 3)
	ends.InsertTupleBatch(tailEnds)
	mid.InsertTupleBatch(tailMid)
	if err := ends.DeleteTupleBatch(append(tailEnds[:40:40], endRows[600:640]...)); err != nil {
		t.Fatal(err)
	}
	if err := mid.DeleteTupleBatch(append(tailMid[:40:40], midRows[600:640]...)); err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	endsB, err := e.ExportRelation("ends")
	if err != nil {
		t.Fatal(err)
	}
	midB, err := e.ExportRelation("mid")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	fixtures := map[string][]byte{
		"golden_chain_ckpt.bin":        ckpt,
		"golden_chain_ends_bundle.bin": endsB,
		"golden_chain_mid_bundle.bin":  midB,
	}
	if os.Getenv("AMSTRACK_UPDATE_GOLDEN") != "" {
		for name, data := range fixtures {
			if err := os.WriteFile(filepath.Join("testdata", name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Log("golden fixtures rewritten")
		return
	}
	for name, got := range fixtures {
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatalf("%s: %v (regenerate with AMSTRACK_UPDATE_GOLDEN=1)", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: chain output drifted from the per-row Horner bytes (len %d vs %d)", name, len(got), len(want))
		}
	}

	re, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for name, live := range map[string][]byte{"ends": endsB, "mid": midB} {
		got, err := re.ExportRelation(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, live) {
			t.Errorf("%s: bundle after checkpoint + log replay differs from the live bundle", name)
		}
	}
}
