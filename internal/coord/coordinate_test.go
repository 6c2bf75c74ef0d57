package coord

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"amstrack/internal/amsd"
	"amstrack/internal/dist"
	"amstrack/internal/engine"
)

// nodeOpts is the shared engine shape: every node (and the single-node
// reference) must run equal Seed and shape options for exchange to work.
func nodeOpts() engine.Options {
	return engine.Options{SignatureWords: 512, SignatureRows: 4, Seed: 7, SketchS1: 256, SketchS2: 4}
}

func newNode(t *testing.T) (*engine.Engine, *httptest.Server) {
	t.Helper()
	return newNodeOpts(t, nodeOpts())
}

func newNodeOpts(t *testing.T, opts engine.Options) (*engine.Engine, *httptest.Server) {
	t.Helper()
	eng, err := engine.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(amsd.NewServer(eng))
	t.Cleanup(ts.Close)
	return eng, ts
}

func define(t *testing.T, e *engine.Engine, names ...string) {
	t.Helper()
	for _, n := range names {
		if _, err := e.Define(n); err != nil {
			t.Fatal(err)
		}
	}
}

// testFetcher is a no-retry, no-sleep fetcher for the happy-path tests.
func testFetcher() *Fetcher {
	return NewFetcher(&http.Client{}, 1, 0)
}

// TestCoordinatorBitIdentical is the acceptance path: two amsd nodes each
// ingest half of a TPC-like partitioned relation pair (zipf-skewed
// orders, flatter lineitems, with a deletion wave); the coordinator
// merges the shipped bundles and its join estimate — and every bound
// attached to it — is BIT-IDENTICAL to a single node having ingested the
// full data. Linearity makes the merge exact, not approximate.
func TestCoordinatorBitIdentical(t *testing.T) {
	zipf, err := dist.NewZipf(1.2, 4000, 11)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := dist.NewZipf(1.05, 4000, 12)
	if err != nil {
		t.Fatal(err)
	}
	orders := dist.Take(zipf, 30000)
	lineitems := dist.Take(flat, 30000)

	// Single-node reference over the full data.
	full, err := engine.New(nodeOpts())
	if err != nil {
		t.Fatal(err)
	}
	define(t, full, "orders", "lineitems")
	fo, _ := full.Get("orders")
	fl, _ := full.Get("lineitems")
	fo.InsertBatch(orders)
	fl.InsertBatch(lineitems)
	if err := fo.DeleteBatch(orders[:2000]); err != nil {
		t.Fatal(err)
	}

	// Two nodes, each holding every other tuple, driven over HTTP.
	engines := make([]*engine.Engine, 2)
	urls := make([]string, 2)
	for i := range engines {
		var ts *httptest.Server
		engines[i], ts = newNode(t)
		urls[i] = ts.URL
		define(t, engines[i], "orders", "lineitems")
	}
	split := func(vs []uint64, i int) []uint64 {
		var out []uint64
		for j, v := range vs {
			if j%2 == i {
				out = append(out, v)
			}
		}
		return out
	}
	client := testFetcher()
	for i := range engines {
		for rel, vs := range map[string][]uint64{"orders": orders, "lineitems": lineitems} {
			ro, _ := engines[i].Get(rel)
			ro.InsertBatch(split(vs, i))
		}
		// The deletion wave is partitioned too.
		ro, _ := engines[i].Get("orders")
		if err := ro.DeleteBatch(split(orders[:2000], i)); err != nil {
			t.Fatal(err)
		}
	}

	res, err := Coordinate(client, urls, "orders", "lineitems", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.EstimateJoin("orders", "lineitems")
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != want.Estimate {
		t.Fatalf("coordinated estimate %v != single-node %v", res.Estimate, want.Estimate)
	}
	if res.Sigma != want.Sigma || res.Fact11 != want.Fact11 || res.SJF != want.SJF || res.SJG != want.SJG {
		t.Fatalf("coordinated bounds %+v != single-node %+v", res, want)
	}
	if res.RowsF != 28000 || res.RowsG != 30000 || res.Nodes != 2 {
		t.Fatalf("rows/nodes = %+v", res)
	}

	// The merged wire bundle itself is bit-identical to the single node's
	// export — estimates AND serialized bytes, freshness stamp included
	// (Seq sums over the disjoint partitions).
	merged, _, err := MergeAcross(client, urls, "orders", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	mergedBlob, err := merged.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	fullBlob, err := full.ExportRelation("orders")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mergedBlob, fullBlob) {
		t.Fatal("merged bundle bytes differ from single-node export")
	}
}

// chainNodeOpts is the shared shape for the chain coordinator tests.
func chainNodeOpts() engine.Options {
	return engine.Options{SignatureWords: 128, ChainWords: 512, Seed: 19,
		SketchS1: 64, SketchS2: 2}
}

// defineChainRels declares F(a) ⋈a G(a,b) ⋈b H(b) on an engine.
func defineChainRels(t *testing.T, e *engine.Engine) {
	t.Helper()
	for name, s := range map[string]engine.Schema{
		"forders":   {Attrs: []string{"a"}, EndA: []string{"a"}},
		"glineitem": {Attrs: []string{"a", "b"}, Middle: [][2]string{{"a", "b"}}},
		"hparts":    {Attrs: []string{"b"}, EndB: []string{"b"}},
	} {
		if _, err := e.DefineSchema(name, s); err != nil {
			t.Fatal(err)
		}
	}
}

// chainData is the shared dataset of the chain coordinator tests.
type chainData struct {
	fvals, hvals []uint64
	grows        [][]uint64
	n, del       int
}

func makeChainData(t *testing.T) *chainData {
	t.Helper()
	zf, err := dist.NewZipf(1.1, 3000, 41)
	if err != nil {
		t.Fatal(err)
	}
	zh, err := dist.NewZipf(1.2, 3000, 42)
	if err != nil {
		t.Fatal(err)
	}
	za, err := dist.NewZipf(1.0, 3000, 43)
	if err != nil {
		t.Fatal(err)
	}
	zb, err := dist.NewZipf(1.3, 3000, 44)
	if err != nil {
		t.Fatal(err)
	}
	const n = 9000
	d := &chainData{n: n, del: n / 10}
	d.fvals = dist.Take(zf, n)
	d.hvals = dist.Take(zh, n)
	as, bs := dist.Take(za, n), dist.Take(zb, n)
	d.grows = make([][]uint64, n)
	for i := range d.grows {
		d.grows[i] = []uint64{as[i], bs[i]}
	}
	return d
}

// ingestPart loads partition i of parts into an engine (parts == 1 loads
// everything), deletion wave included.
func (d *chainData) ingestPart(t *testing.T, e *engine.Engine, i, parts int) {
	t.Helper()
	pick := func(j int) bool { return parts == 1 || j%parts == i }
	rf, _ := e.Get("forders")
	rg, _ := e.Get("glineitem")
	rh, _ := e.Get("hparts")
	var fs, hs []uint64
	var gs [][]uint64
	for j := 0; j < d.n; j++ {
		if pick(j) {
			fs = append(fs, d.fvals[j])
			gs = append(gs, d.grows[j])
			hs = append(hs, d.hvals[j])
		}
	}
	rf.InsertBatch(fs)
	rg.InsertTupleBatch(gs)
	rh.InsertBatch(hs)
	var dfs, dhs []uint64
	var dgs [][]uint64
	for j := 0; j < d.del; j++ {
		if pick(j) {
			dfs = append(dfs, d.fvals[j])
			dgs = append(dgs, d.grows[j])
			dhs = append(dhs, d.hvals[j])
		}
	}
	if err := rf.DeleteBatch(dfs); err != nil {
		t.Fatal(err)
	}
	if err := rg.DeleteTupleBatch(dgs); err != nil {
		t.Fatal(err)
	}
	if err := rh.DeleteBatch(dhs); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestChainCoordinatorBitIdentical is the chain acceptance path: THREE
// amsd nodes each hold a third of the F(a) ⋈a G(a,b) ⋈b H(b) data
// (zipf-skewed ends, a mixed middle, plus a deletion wave); the
// coordinator merges the shipped chain sections and its estimate — and
// every bound attached to it — is BIT-IDENTICAL to a single node having
// ingested everything.
func TestChainCoordinatorBitIdentical(t *testing.T) {
	data := makeChainData(t)
	t.Run("absorber", func(t *testing.T) {
		// Single-node reference over the full data.
		full, err := engine.New(chainNodeOpts())
		if err != nil {
			t.Fatal(err)
		}
		defineChainRels(t, full)
		data.ingestPart(t, full, 0, 1)

		// Three nodes, each holding every third tuple, over HTTP.
		urls := make([]string, 3)
		for i := range urls {
			eng, err := engine.New(chainNodeOpts())
			if err != nil {
				t.Fatal(err)
			}
			defineChainRels(t, eng)
			data.ingestPart(t, eng, i, 3)
			ts := httptest.NewServer(amsd.NewServer(eng))
			t.Cleanup(ts.Close)
			urls[i] = ts.URL
		}

		client := testFetcher()
		res, err := CoordinateChain(client, urls, "forders", "a", "glineitem", "b", "hparts", true, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := full.EstimateChainJoin("forders", "a", "glineitem", "b", "hparts")
		if err != nil {
			t.Fatal(err)
		}
		if res.Estimate != want.Estimate {
			t.Fatalf("coordinated chain estimate %v != single-node %v", res.Estimate, want.Estimate)
		}
		if res.Sigma != want.Sigma || res.Upper != want.Upper ||
			res.SJF != want.SJF || res.SJG != want.SJG || res.SJH != want.SJH || res.K != want.K {
			t.Fatalf("coordinated chain bounds %+v != single-node %+v", res, want)
		}
		if res.Nodes != 3 || res.RowsG != int64(data.n-data.del) {
			t.Fatalf("nodes/rows = %+v", res)
		}

		// The merged wire bundles themselves — chain sections included —
		// are bit-identical to the single node's exports.
		for _, rel := range []string{"forders", "glineitem", "hparts"} {
			merged, _, err := MergeAcross(client, urls, rel, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			mergedBlob, err := merged.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			fullBlob, err := full.ExportRelation(rel)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mergedBlob, fullBlob) {
				t.Fatalf("%s: merged bundle bytes differ from single-node export", rel)
			}
		}
	})
}

// TestChainResultPrint pins the chain output shape.
func TestChainResultPrint(t *testing.T) {
	r := &ChainJoinBody{ChainJoinRequest: ChainJoinRequest{F: "f", AttrA: "a", G: "g", AttrB: "b", H: "h"},
		ChainJoinEstimate: engine.ChainJoinEstimate{Estimate: 99, Sigma: 5, Upper: 1000, SJF: 1, SJG: 2, SJH: 3, K: 512},
		ChainEvidence:     &amsd.ChainEvidence{Evidence: amsd.Evidence{Nodes: 3}, RowsF: 1, RowsG: 2, RowsH: 3}}
	var buf strings.Builder
	r.Print(&buf)
	for _, want := range []string{"chain f ⋈a g ⋈b h across 3 node(s)", "estimate", "envelope", "k=512", "C–S bound"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, buf.String())
		}
	}
}

// TestCoordinatorPartialNodes: a relation missing on one node is skipped
// (with a warning) unless strict.
func TestCoordinatorPartialNodes(t *testing.T) {
	e1, ts1 := newNode(t)
	e2, ts2 := newNode(t)
	define(t, e1, "orders", "regional")
	define(t, e2, "orders")
	for _, e := range []*engine.Engine{e1, e2} {
		r, _ := e.Get("orders")
		r.InsertBatch([]uint64{1, 2, 3, 4, 5})
	}
	r, _ := e1.Get("regional")
	r.InsertBatch([]uint64{2, 3})

	urls := []string{ts1.URL, ts2.URL}
	client := testFetcher()
	var warn strings.Builder
	res, err := Coordinate(client, urls, "orders", "regional", false, &warn)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsG != 2 || res.RowsF != 10 {
		t.Fatalf("rows = %+v", res)
	}
	if !strings.Contains(warn.String(), "regional") {
		t.Fatalf("no skip warning: %q", warn.String())
	}
	if _, err := Coordinate(client, urls, "orders", "regional", true, nil); err == nil {
		t.Fatal("strict mode accepted a missing partition")
	}
	if _, err := Coordinate(client, urls, "orders", "ghost", false, nil); err == nil {
		t.Fatal("fully absent relation accepted")
	}
	if _, err := Coordinate(client, nil, "a", "b", false, nil); err == nil {
		t.Fatal("empty node list accepted")
	}
}

// TestCoordinatorEscapedNames: relation names with URL metacharacters
// ('?', '#', spaces) and multi-segment '/' names reach the node intact
// instead of being silently truncated into a 404-and-skip.
func TestCoordinatorEscapedNames(t *testing.T) {
	e1, ts1 := newNode(t)
	for _, name := range []string{"sales?2024", "ref #1 data", "sales/2026/q1"} {
		define(t, e1, name)
		r, _ := e1.Get(name)
		r.InsertBatch([]uint64{1, 2, 3})
	}
	client := testFetcher()
	res, err := Coordinate(client, []string{ts1.URL}, "sales?2024", "ref #1 data", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsF != 3 || res.RowsG != 3 {
		t.Fatalf("rows = %+v", res)
	}
	if res2, err := Coordinate(client, []string{ts1.URL}, "sales/2026/q1", "sales?2024", true, nil); err != nil {
		t.Fatal(err)
	} else if res2.RowsF != 3 {
		t.Fatalf("multi-segment rows = %+v", res2)
	}
}

// TestSplitNodes: URL list parsing tolerates spaces, empties, and
// trailing slashes.
func TestSplitNodes(t *testing.T) {
	got := SplitNodes(" http://a:7600/, ,http://b:7600 ,")
	if len(got) != 2 || got[0] != "http://a:7600" || got[1] != "http://b:7600" {
		t.Fatalf("SplitNodes = %q", got)
	}
}

// TestResultPrint pins the human output shape.
func TestResultPrint(t *testing.T) {
	r := &JoinBody{F: "f", G: "g",
		JoinEstimate: engine.JoinEstimate{Estimate: 1234, Sigma: 56, Fact11: 9999, SJF: 11, SJG: 22},
		PairEvidence: &amsd.PairEvidence{Evidence: amsd.Evidence{Nodes: 2}, RowsF: 10, RowsG: 20, K: 512}}
	var buf strings.Builder
	r.Print(&buf)
	for _, want := range []string{"f ⋈ g across 2 node(s)", "estimate", "Lemma 4.4", "k=512", "Fact 1.1"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, buf.String())
		}
	}
}
