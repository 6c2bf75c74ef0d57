package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amstrack/internal/amsd"
	"amstrack/internal/coord"
	"amstrack/internal/engine"
	"amstrack/internal/wire"
	"amstrack/internal/xrand"
)

// memOpts is the engine shape shared by every fleet node AND the mirror
// — bundle bytes compare bit-for-bit only with equal Seed and
// dimensions on all sides.
func memOpts() engine.Options {
	return engine.Options{SignatureWords: 64, Seed: 7, SketchS1: 64, SketchS2: 4, Shards: 2}
}

// fleetNode is one in-process amsd node: real HTTP listener, real wire
// listener, the same /healthz wire-address bridge cmd/amsd wires up.
type fleetNode struct {
	eng     *engine.Engine
	base    string
	httpLn  net.Listener
	httpSrv *http.Server
	wireSrv *wire.Server
	wireLn  net.Listener
}

// startFleetNode boots a node; withWire=false builds an HTTP-only member
// the router must refuse. listen is the address to bind ("" = ephemeral),
// letting the torture test restart a node on its old port.
func startFleetNode(t *testing.T, eng *engine.Engine, withWire bool, listen string) *fleetNode {
	t.Helper()
	var sink wire.Sink
	if withWire {
		sink = wire.EngineSink(eng)
	}
	return startSinkNode(t, eng, sink, listen)
}

// startSinkNode boots a node over eng whose wire listener serves sink;
// a nil sink serves no wire listener.
func startSinkNode(t *testing.T, eng *engine.Engine, sink wire.Sink, listen string) *fleetNode {
	t.Helper()
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	n := &fleetNode{eng: eng}
	handler := amsd.NewServer(eng)
	var err error
	// Retry the bind: restarting a "crashed" node reclaims its old port,
	// which may straggle briefly after the previous listener closed.
	for attempt := 0; ; attempt++ {
		n.httpLn, err = net.Listen("tcp", listen)
		if err == nil {
			break
		}
		if attempt >= 100 {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	n.base = "http://" + n.httpLn.Addr().String()
	if sink != nil {
		n.wireLn, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		n.wireSrv = wire.NewServerSink(sink)
		wireAddr := n.wireLn.Addr().String()
		handler.SetWireStatus(func() amsd.WireStatus {
			return amsd.WireStatus{Addr: wireAddr}
		})
		go func() { _ = n.wireSrv.Serve(n.wireLn) }()
	}
	n.httpSrv = &http.Server{Handler: handler}
	go func() { _ = n.httpSrv.Serve(n.httpLn) }()
	t.Cleanup(func() { n.stop() })
	return n
}

// stop closes the node's listeners (idempotent); the engine is left to
// the caller so a torture test can reopen it.
func (n *fleetNode) stop() {
	if n.wireSrv != nil {
		_ = n.wireSrv.Close()
		n.wireSrv = nil
	}
	_ = n.httpSrv.Close()
}

// startFleet boots count nodes over fresh in-memory engines.
func startFleet(t *testing.T, count int, withWire bool) []*fleetNode {
	t.Helper()
	nodes := make([]*fleetNode, count)
	for i := range nodes {
		eng, err := engine.New(memOpts())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = eng.Close() })
		nodes[i] = startFleetNode(t, eng, withWire, "")
	}
	return nodes
}

func fleetBases(nodes []*fleetNode) []string {
	bases := make([]string, len(nodes))
	for i, n := range nodes {
		bases[i] = n.base
	}
	return bases
}

// testRouter builds a router over the fleet with test-speed timeouts.
func testRouter(t *testing.T, nodes []*fleetNode, mut func(*Options)) *Router {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	opts := Options{
		Nodes:         fleetBases(nodes),
		Client:        client,
		Fetcher:       coord.NewFetcher(client, 2, 10*time.Millisecond),
		AckTimeout:    5 * time.Second,
		ProbeInterval: 50 * time.Millisecond,
		downAfter:     2,
	}
	if mut != nil {
		mut(&opts)
	}
	rt, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	return rt
}

// tortureBatch rows per batch, deterministic content per global batch
// id — the mirror rebuilds any subset exactly.
const tortureBatch = 32

func batchVals(i int) []uint64 {
	rng := xrand.New(uint64(i)*0x9E3779B97F4A7C15 + 1)
	out := make([]uint64, tortureBatch)
	for j := range out {
		out[j] = rng.Uint64n(4096)
	}
	return out
}

// mergedFleetBundle fetches rel from every node holding it and merges
// the partitions into one in-memory engine — what a coordinator does —
// returning the canonical bundle bytes.
func mergedFleetBundle(t *testing.T, bases []string, rel string) []byte {
	t.Helper()
	fx := coord.NewFetcher(&http.Client{Timeout: 5 * time.Second}, 2, 10*time.Millisecond)
	agg, err := engine.New(memOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	imported := false
	for _, base := range bases {
		raw, err := fx.FetchBundleBytes(base, rel)
		if errors.Is(err, coord.ErrNotFound) {
			continue
		}
		if err != nil {
			t.Fatalf("fetch %s from %s: %v", rel, base, err)
		}
		if !imported {
			err = agg.ImportRelation(rel, raw)
			imported = true
		} else {
			err = agg.MergeRelation(rel, raw)
		}
		if err != nil {
			t.Fatalf("merge %s from %s: %v", rel, base, err)
		}
	}
	if !imported {
		t.Fatalf("no node holds relation %q", rel)
	}
	out, err := agg.ExportRelation(rel)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// expectBundleEqual compares two bundles bit-for-bit, normalizing only
// the Epoch (durability metadata, differs between durable nodes and
// in-memory mirrors).
func expectBundleEqual(t *testing.T, got, want []byte, what string) {
	t.Helper()
	var gd, wd engine.RelationBundle
	if err := gd.UnmarshalBinary(got); err != nil {
		t.Fatal(err)
	}
	if err := wd.UnmarshalBinary(want); err != nil {
		t.Fatal(err)
	}
	if gd.Seq != wd.Seq {
		t.Fatalf("%s: fleet Seq=%d, mirror Seq=%d — op counts diverge", what, gd.Seq, wd.Seq)
	}
	gd.Epoch = wd.Epoch
	gn, err := gd.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	wn, err := wd.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gn, wn) {
		t.Fatalf("%s: merged fleet synopsis differs from the mirror", what)
	}
}

// mirrorOf builds the single-node mirror holding batches [1..n].
func mirrorOf(t *testing.T, rel string, n int) []byte {
	t.Helper()
	m, err := engine.New(memOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	r, err := m.Define(rel)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		r.InsertBatch(batchVals(i))
	}
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	out, err := m.ExportRelation(rel)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRoutedIngestMatchesMirror is the core linearity check: concurrent
// writers push batches through the router's sink (the same surface the
// upstream wire server drives), the fleet's merged bundle must be
// bit-identical to one engine that saw every row.
func TestRoutedIngestMatchesMirror(t *testing.T) {
	nodes := startFleet(t, 3, true)
	rt := testRouter(t, nodes, nil)
	if err := rt.Define(coord.Schema{Relation: "f"}); err != nil {
		t.Fatal(err)
	}
	rs, err := rt.Relation("f")
	if err != nil {
		t.Fatal(err)
	}

	const writers, perWriter = 4, 25
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := w*perWriter + i + 1
				if err := rs.Apply(false, 1, batchVals(id)); err != nil {
					errs[w] = fmt.Errorf("batch %d: %w", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Drain(); err != nil {
		t.Fatal(err)
	}

	// The stream really was partitioned: every node holds some of it.
	// The nodes' per-batch ACKs alone carried the drain: no FLUSH frames.
	for _, n := range nodes {
		rel, err := n.eng.Get("f")
		if err != nil {
			t.Fatalf("%s never saw the relation: %v", n.base, err)
		}
		if rel.Len() == 0 {
			t.Fatalf("%s holds zero rows — ring did not spread the stream", n.base)
		}
		if st := n.wireSrv.Stats(); st.Flushes != 0 {
			t.Fatalf("%s served %d FLUSH frames beside %d batches; the router should send none",
				n.base, st.Flushes, st.Batches)
		}
	}
	expectBundleEqual(t, mergedFleetBundle(t, fleetBases(nodes), "f"),
		mirrorOf(t, "f", writers*perWriter), "routed ingest")
}

// TestRouterWireUpstream drives the FULL amswire ladder: a stock
// wire.Client streams into a wire.Server whose sink is the router,
// which re-streams to three amsd nodes. The upstream flush must imply
// downstream durability, and the merged estimate must match the mirror.
func TestRouterWireUpstream(t *testing.T) {
	nodes := startFleet(t, 3, true)
	rt := testRouter(t, nodes, nil)
	if err := rt.Define(coord.Schema{Relation: "f"}); err != nil {
		t.Fatal(err)
	}

	front := wire.NewServerSink(rt.Sink())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = front.Serve(ln) }()
	t.Cleanup(func() { _ = front.Close() })

	cl, err := wire.Dial(ln.Addr().String(), wire.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const batches = 60
	for i := 1; i <= batches; i++ {
		if err := cl.InsertBatch("f", batchVals(i)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	expectBundleEqual(t, mergedFleetBundle(t, fleetBases(nodes), "f"),
		mirrorOf(t, "f", batches), "wire upstream")
}

// postJSON POSTs body as JSON, requires status want, and decodes the
// answer into out when out is non-nil.
func postJSON(t *testing.T, client *http.Client, url string, body any, want int, out any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: HTTP %d (want %d): %s", url, resp.StatusCode, want, msg)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRouterHTTPIngest drives the router's own HTTP upstream surface
// (the amsd-compatible JSON shapes) over wire nodes: each ingest answers
// with its own row count and the fleet-total Len, and the merged fleet
// matches the mirror.
func TestRouterHTTPIngest(t *testing.T) {
	nodes := startFleet(t, 2, true)
	rt := testRouter(t, nodes, nil)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	client := front.Client()

	postJSON(t, client, front.URL+"/v1/relations", map[string]any{"name": "f"}, http.StatusCreated, nil)
	const batches = 21
	var resp amsd.IngestBody
	for i := 1; i <= batches; i++ {
		postJSON(t, client, front.URL+"/v1/ingest",
			map[string]any{"relation": "f", "inserts": batchVals(i)}, http.StatusOK, &resp)
	}
	if resp.Inserted != tortureBatch || resp.Len != batches*tortureBatch {
		t.Fatalf("last ingest = %+v, want inserted=%d len=%d", resp, tortureBatch, batches*tortureBatch)
	}
	expectBundleEqual(t, mergedFleetBundle(t, fleetBases(nodes), "f"),
		mirrorOf(t, "f", batches), "http ingest")

	// Both nodes really were used (the ring spread the keys).
	for _, n := range nodes {
		rel, err := n.eng.Get("f")
		if err != nil || rel.Len() == 0 {
			t.Fatalf("%s holds no rows (err=%v)", n.base, err)
		}
	}
}

// TestRouterCutsAtFrameBound: one HTTP ingest with more values than one
// amswire frame holds reaches the node as sub-batches of at most
// maxPartVals values, so each ACK deadline covers a bounded amount of
// apply work, under -race too. The node stays healthy and owes no audit
// under the default test deadline, and the relation keeps taking writes.
func TestRouterCutsAtFrameBound(t *testing.T) {
	nodes := startFleet(t, 1, true)
	rt := testRouter(t, nodes, nil)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	client := front.Client()
	postJSON(t, client, front.URL+"/v1/relations", amsd.DefineRequest{Name: "f"}, http.StatusCreated, nil)

	const n = 2_200_000 // over wire.MaxBatchVals (2,097,024)
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i % 4096)
	}
	var resp amsd.IngestBody
	postJSON(t, client, front.URL+"/v1/ingest", amsd.IngestRequest{Relation: "f", Inserts: vals}, http.StatusOK, &resp)
	if resp.Len != n {
		t.Fatalf("ingest answered len %d, want %d", resp.Len, n)
	}
	if got, want := nodes[0].wireSrv.Stats().Batches, int64((n+maxPartVals-1)/maxPartVals); got < want {
		t.Fatalf("node took %d batches, want the ingest cut into at least %d", got, want)
	}
	if h := rt.Health()[0]; h.State != "healthy" || h.Audit {
		t.Fatalf("node health %+v, want healthy with no audit owed", h)
	}
	postJSON(t, client, front.URL+"/v1/ingest", amsd.IngestRequest{Relation: "f", Inserts: []uint64{1, 2, 3}}, http.StatusOK, &resp)
}

// TestRouterIngestMatchesNode: the router promises amsd's ingest body, so
// every body gets the same status, inserted and deleted from a node and
// from a router over the same fleet — valid or not.
func TestRouterIngestMatchesNode(t *testing.T) {
	nodes := startFleet(t, 2, true)
	rt := testRouter(t, nodes, nil)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	client := front.Client()
	postJSON(t, client, front.URL+"/v1/relations", amsd.DefineRequest{Name: "f"}, http.StatusCreated, nil)
	postJSON(t, client, front.URL+"/v1/relations", amsd.DefineRequest{Name: "wide", Attrs: []string{"a", "b"}}, http.StatusCreated, nil)

	ingest := func(base, body string) (int, amsd.IngestBody) {
		resp, err := client.Post(base+"/v1/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out amsd.IngestBody
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"inserts", `{"relation":"f","inserts":[1,2,3],"deletes":[2]}`, http.StatusOK},
		{"arity-1 rows", `{"relation":"f","insert_rows":[[1],[2],[3]],"delete_rows":[[1]]}`, http.StatusOK},
		{"flat and rows", `{"relation":"f","inserts":[4,5],"insert_rows":[[6]],"deletes":[4],"delete_rows":[[5]]}`, http.StatusOK},
		{"arity-2 rows", `{"relation":"wide","insert_rows":[[1,2],[3,4]]}`, http.StatusOK},
		{"wrong width", `{"relation":"wide","insert_rows":[[1,2],[3]]}`, http.StatusBadRequest},
		{"flat on arity 2", `{"relation":"wide","inserts":[1]}`, http.StatusBadRequest},
		{"unknown relation", `{"relation":"nope","inserts":[1]}`, http.StatusNotFound},
		{"trailing data", `{"relation":"f","inserts":[1]} {"relation":"f","inserts":[2]}`, http.StatusBadRequest},
		{"unknown field", `{"relation":"f","inserts":[1],"insert":[2]}`, http.StatusBadRequest},
	} {
		nodeStatus, nodeBody := ingest(nodes[0].base, tc.body)
		routerStatus, routerBody := ingest(front.URL, tc.body)
		if nodeStatus != tc.status || routerStatus != tc.status {
			t.Errorf("%s: node %d, router %d, want %d", tc.name, nodeStatus, routerStatus, tc.status)
		}
		if nodeBody.Inserted != routerBody.Inserted || nodeBody.Deleted != routerBody.Deleted {
			t.Errorf("%s: node inserted/deleted %d/%d, router %d/%d", tc.name,
				nodeBody.Inserted, nodeBody.Deleted, routerBody.Inserted, routerBody.Deleted)
		}
	}
}

// TestRouterUnroutedAnswersJSON: a request no route matches gets a
// JSON error like every other answer — 404 for an unknown path, 405
// with the mux's Allow header for a known path and another method.
func TestRouterUnroutedAnswersJSON(t *testing.T) {
	rt := testRouter(t, startFleet(t, 1, true), nil)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	for _, tc := range []struct {
		method, path, allow string
		status              int
	}{
		{"GET", "/nope", "", http.StatusNotFound},
		{"GET", "/v1/ingest", "POST", http.StatusMethodNotAllowed},
	} {
		req, err := http.NewRequest(tc.method, front.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := front.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var eb struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != tc.status || err != nil || eb.Error == "" ||
			resp.Header.Get("Content-Type") != "application/json" || resp.Header.Get("Allow") != tc.allow {
			t.Errorf("%s %s: %d %q Allow %q, error body %q (%v); want %d JSON, Allow %q", tc.method, tc.path,
				resp.StatusCode, resp.Header.Get("Content-Type"), resp.Header.Get("Allow"), eb.Error, err, tc.status, tc.allow)
		}
	}
}

// TestRouterDefineMatchesNode: the router promises amsd's define, so
// every define body gets the same status from a node and from a router
// over the same fleet. A refused define changes nothing: afterwards the
// router's schema is the members' (byte for byte as a node answers it)
// and routed ingest still reaches healthy members.
func TestRouterDefineMatchesNode(t *testing.T) {
	nodes := startFleet(t, 2, true)
	for _, n := range nodes {
		if _, err := n.eng.Define("f"); err != nil {
			t.Fatal(err)
		}
	}
	rt := testRouter(t, nodes, nil)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	client := front.Client()

	define := func(base, body string) int {
		resp, err := client.Post(base+"/v1/relations", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// The node sees each body first, so "g" is new to the router's other
	// member only.
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"new relation", `{"name":"g"}`, http.StatusCreated},
		{"no name", `{"name":""}`, http.StatusBadRequest},
		{"chain_ab entry with one attribute", `{"name":"h","attrs":["a","b"],"chain_ab":[["a"]]}`, http.StatusBadRequest},
		{"chain_a unknown attribute", `{"name":"h","attrs":["a"],"chain_a":["zz"]}`, http.StatusBadRequest},
		{"chain_a attribute twice", `{"name":"h","attrs":["a"],"chain_a":["a","a"]}`, http.StatusBadRequest},
		{"trailing data", `{"name":"h"} {"name":"h2"}`, http.StatusBadRequest},
		{"unknown field", `{"name":"h","skim_hitter":8}`, http.StatusBadRequest},
		{"another schema", `{"name":"f","attrs":["a","b"]}`, http.StatusConflict},
	} {
		nodeStatus, routerStatus := define(nodes[0].base, tc.body), define(front.URL, tc.body)
		if nodeStatus != tc.status || routerStatus != tc.status {
			t.Errorf("%s: node %d, router %d, want %d", tc.name, nodeStatus, routerStatus, tc.status)
		}
	}

	schema := func(base, name string) string {
		resp, err := client.Get(base + "/v1/relations/" + name)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%d %s", resp.StatusCode, raw)
	}
	for _, name := range []string{"f", "g"} {
		if node, router := schema(nodes[0].base, name), schema(front.URL, name); node != router {
			t.Errorf("schema of %q: node %s, router %s", name, node, router)
		}
	}
	postJSON(t, client, front.URL+"/v1/ingest", amsd.IngestRequest{Relation: "f", Inserts: batchVals(1)}, http.StatusOK, nil)
	for _, h := range rt.Health() {
		if h.State != StateHealthy.String() {
			t.Errorf("%s is %s after the refused define: %s", h.Node, h.State, h.LastErr)
		}
	}
}

// TestRouterRefusesHTTPOnlyNode: amswire is the router's only data
// path, so a member without a wire listener fails every probe and every
// dial. Batches routed to it before the first probe fail at the dial,
// before anything is sent, and fail over: the node holds no rows, never
// reports healthy, its last_error names the missing listener, and the
// fleet stays exact.
func TestRouterRefusesHTTPOnlyNode(t *testing.T) {
	wiredEng, err := engine.New(memOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = wiredEng.Close() })
	httpEng, err := engine.New(memOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = httpEng.Close() })
	nodes := []*fleetNode{startFleetNode(t, wiredEng, true, ""), startFleetNode(t, httpEng, false, "")}
	httpOnly := nodes[1].base

	rt := testRouter(t, nodes, nil)
	if err := rt.Define(coord.Schema{Relation: "f"}); err != nil {
		t.Fatal(err)
	}
	rs, err := rt.Relation("f")
	if err != nil {
		t.Fatal(err)
	}
	const batches = 40
	for i := 1; i <= batches; i++ {
		if err := rs.Apply(false, 1, batchVals(i)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if err := rs.Drain(); err != nil {
		t.Fatal(err)
	}
	expectBundleEqual(t, mergedFleetBundle(t, fleetBases(nodes), "f"),
		mirrorOf(t, "f", batches), "http-only member refused")
	if rel, err := httpEng.Get("f"); err != nil || rel.Len() != 0 {
		t.Fatalf("http-only node: err=%v, want the relation defined and empty", err)
	}

	// Many probe rounds later the node is still refused, and says why.
	deadline := time.Now().Add(10 * rt.opts.ProbeInterval)
	for time.Now().Before(deadline) {
		for _, h := range rt.Health() {
			if h.Node != httpOnly {
				continue
			}
			if h.State == StateHealthy.String() {
				t.Fatal("http-only node reported healthy")
			}
			if !strings.Contains(h.LastErr, "no wire listener") {
				t.Fatalf("last_error = %q, want it to name the missing wire listener", h.LastErr)
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRouterBodyCap: every POST route of the upstream surface caps its
// request body, answering an overrun with a JSON 413 as amsd does.
func TestRouterBodyCap(t *testing.T) {
	nodes := startFleet(t, 1, true)
	rt := testRouter(t, nodes, nil)
	rt.maxBody = 1 << 10 // small cap keeps the over-cap bodies cheap
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	long := `"` + strings.Repeat("x", 2<<10) + `"`
	for _, tc := range []struct{ name, route, body string }{
		{"ingest", "/v1/ingest", `{"relation":` + long + `}`},
		{"define", "/v1/relations", `{"name":` + long + `}`},
		{"drain", "/v1/admin/drain", `{"node":` + long + `}`},
		{"forget", "/v1/admin/forget", `{"node":` + long + `}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := front.Client().Post(front.URL+tc.route, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("status = %d, want 413", resp.StatusCode)
			}
			var eb struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
				t.Fatalf("413 body is not a JSON error (err=%v, body=%+v)", err, eb)
			}
		})
	}
}

// TestRouterAdoptsExistingRelation: a relation defined on the nodes
// before the router started (with rows already in it) must be adopted —
// schema discovered, ledger seeded from the nodes' current Seq — and
// further routed ingest must keep the fleet exact.
func TestRouterAdoptsExistingRelation(t *testing.T) {
	nodes := startFleet(t, 2, true)
	// Pre-existing data, all on node 0, before any router exists.
	rel, err := nodes[0].eng.Define("f")
	if err != nil {
		t.Fatal(err)
	}
	rel.InsertBatch(batchVals(1))
	if err := nodes[0].eng.Drain(); err != nil {
		t.Fatal(err)
	}

	rt := testRouter(t, nodes, nil)
	rs, err := rt.Relation("f") // adopt: defines on node 1, seeds ledger
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 10; i++ {
		if err := rs.Apply(false, 1, batchVals(i)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if err := rs.Drain(); err != nil {
		t.Fatal(err)
	}
	expectBundleEqual(t, mergedFleetBundle(t, fleetBases(nodes), "f"),
		mirrorOf(t, "f", 10), "adopted relation")
}

// TestRouterMultiAttrRouting: arity-2 rows route by the PRIMARY
// attribute and arrive whole; the merged chain-capable fleet matches a
// mirror fed the same tuples.
func TestRouterMultiAttrRouting(t *testing.T) {
	nodes := startFleet(t, 3, true)
	rt := testRouter(t, nodes, nil)
	sc := coord.Schema{Relation: "wide", Attrs: []string{"a", "b"}, ChainA: []string{"b"}}
	if err := rt.Define(sc); err != nil {
		t.Fatal(err)
	}
	rs, err := rt.Relation("wide")
	if err != nil {
		t.Fatal(err)
	}

	mirror, err := engine.New(memOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer mirror.Close()
	mrel, err := mirror.DefineSchema("wide", engine.Schema{Attrs: []string{"a", "b"}, EndA: []string{"b"}})
	if err != nil {
		t.Fatal(err)
	}

	rng := xrand.New(11)
	const rows = 600
	flat := make([]uint64, 0, rows*2)
	tuples := make([][]uint64, 0, rows)
	for i := 0; i < rows; i++ {
		a, b := rng.Uint64n(1024), rng.Uint64n(1024)
		flat = append(flat, a, b)
		tuples = append(tuples, []uint64{a, b})
	}
	if err := rs.Apply(false, 2, flat); err != nil {
		t.Fatal(err)
	}
	mrel.InsertTupleBatch(tuples)
	if err := rs.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := mirror.Drain(); err != nil {
		t.Fatal(err)
	}
	want, err := mirror.ExportRelation("wide")
	if err != nil {
		t.Fatal(err)
	}
	expectBundleEqual(t, mergedFleetBundle(t, fleetBases(nodes), "wide"), want, "multi-attr")
}

// waitFor polls until cond or the deadline.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// nodeState reads one member's health string.
func nodeState(rt *Router, base string) string {
	for _, h := range rt.Health() {
		if h.Node == base {
			return h.State
		}
	}
	return "?"
}

// TestRouterFailoverOnDeadNode: kill a node's listeners mid-stream; the
// router must fail the un-ACKed work over to the survivors, mark the
// node down, and the fleet (merged WITHOUT the dead node) must still
// hold every acknowledged batch.
func TestRouterFailoverOnDeadNode(t *testing.T) {
	nodes := startFleet(t, 3, true)
	rt := testRouter(t, nodes, func(o *Options) {
		o.AckTimeout = 2 * time.Second
	})
	if err := rt.Define(coord.Schema{Relation: "f"}); err != nil {
		t.Fatal(err)
	}
	rs, err := rt.Relation("f")
	if err != nil {
		t.Fatal(err)
	}

	const phase1 = 30
	for i := 1; i <= phase1; i++ {
		if err := rs.Apply(false, 1, batchVals(i)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if err := rs.Drain(); err != nil {
		t.Fatal(err)
	}

	// Hard-stop node 2: listeners close, established conns reset. Its
	// engine survives in-process but is unreachable — the amsd process
	// equivalent of a SIGKILL for a memory-only node.
	nodes[2].stop()

	const phase2 = 60
	for i := phase1 + 1; i <= phase2; i++ {
		if err := rs.Apply(false, 1, batchVals(i)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if err := rs.Drain(); err != nil {
		t.Fatalf("drain after node death: %v", err)
	}
	waitFor(t, 5*time.Second, "node 2 marked down", func() bool {
		return nodeState(rt, nodes[2].base) == "down"
	})

	// Every acked batch lives on the SURVIVORS: the dead node's rows are
	// exactly the phase-1 rows it owned, which were acked and are now
	// unreachable — so the mirror for the survivor merge is every batch
	// minus what node 2 holds.
	survivors := []string{nodes[0].base, nodes[1].base}
	got := mergedFleetBundle(t, survivors, "f")

	deadRel, err := nodes[2].eng.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes[2].eng.Drain(); err != nil {
		t.Fatal(err)
	}
	deadBundle, err := nodes[2].eng.ExportRelation("f")
	if err != nil {
		t.Fatal(err)
	}
	_ = deadRel

	// survivors + dead partition must equal the full mirror (no row was
	// lost OR double-applied anywhere in the failover).
	agg, err := engine.New(memOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	if err := agg.ImportRelation("f", got); err != nil {
		t.Fatal(err)
	}
	if err := agg.MergeRelation("f", deadBundle); err != nil {
		t.Fatal(err)
	}
	full, err := agg.ExportRelation("f")
	if err != nil {
		t.Fatal(err)
	}
	expectBundleEqual(t, full, mirrorOf(t, "f", phase2), "failover conservation")
}

// TestRouterDrainRebalance: drain a member; its data must move to the
// ring successor (export → merge → delete), the fleet total must be
// conserved bit-exactly, and the drained node must stop receiving.
func TestRouterDrainRebalance(t *testing.T) {
	nodes := startFleet(t, 3, true)
	rt := testRouter(t, nodes, nil)
	if err := rt.Define(coord.Schema{Relation: "f"}); err != nil {
		t.Fatal(err)
	}
	rs, err := rt.Relation("f")
	if err != nil {
		t.Fatal(err)
	}
	const phase1 = 40
	for i := 1; i <= phase1; i++ {
		if err := rs.Apply(false, 1, batchVals(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Drain(); err != nil {
		t.Fatal(err)
	}

	victim := nodes[1]
	rep, err := rt.DrainNode(victim.base)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(rep.Moved) != 1 || rep.Moved[0].Relation != "f" {
		t.Fatalf("drain report = %+v", rep)
	}
	if _, err := victim.eng.Get("f"); err == nil {
		t.Fatal("drained node still holds the relation")
	}

	// Conservation: survivors alone now hold everything.
	expectBundleEqual(t, mergedFleetBundle(t, []string{nodes[0].base, nodes[2].base}, "f"),
		mirrorOf(t, "f", phase1), "post-drain")

	// New ingest avoids the drained member entirely.
	before, _ := victim.eng.Names(), struct{}{}
	for i := phase1 + 1; i <= phase1+20; i++ {
		if err := rs.Apply(false, 1, batchVals(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(victim.eng.Names()) != len(before) {
		t.Fatal("drained node received new relations")
	}
	expectBundleEqual(t, mergedFleetBundle(t, []string{nodes[0].base, nodes[2].base}, "f"),
		mirrorOf(t, "f", phase1+20), "post-drain ingest")
}

// TestRouterDrainUnderIngest drains a member while two writers keep
// routing batches: each applies batches from a shared counter and
// flushes every 4, until the drain returns and it reaches its next
// flush. No writer sees an error, the drained node ends up holding no
// relation, and the survivors alone hold every applied batch, bit for
// bit.
func TestRouterDrainUnderIngest(t *testing.T) {
	nodes := startFleet(t, 3, true)
	rt := testRouter(t, nodes, nil)
	if err := rt.Define(coord.Schema{Relation: "f"}); err != nil {
		t.Fatal(err)
	}
	rs, err := rt.Relation("f")
	if err != nil {
		t.Fatal(err)
	}

	const writers = 2
	var next, during atomic.Int64 // batch ids handed out; batches applied mid-drain
	var draining, drained atomic.Bool
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 1; ; j++ {
				id := int(next.Add(1))
				mid := draining.Load() && !drained.Load()
				if err := rs.Apply(false, 1, batchVals(id)); err != nil {
					errs[w] = fmt.Errorf("batch %d: %w", id, err)
					return
				}
				if mid && !drained.Load() {
					during.Add(1)
				}
				if j%4 != 0 {
					continue
				}
				if err := rs.Drain(); err != nil {
					errs[w] = fmt.Errorf("drain after batch %d: %w", id, err)
					return
				}
				if drained.Load() {
					return
				}
			}
		}(w)
	}
	waitFor(t, 5*time.Second, "writers under way", func() bool { return next.Load() >= 16 })

	victim := nodes[1]
	draining.Store(true)
	rep, err := rt.DrainNode(victim.base)
	drained.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(rep.Moved) != 1 || rep.Moved[0].Relation != "f" {
		t.Fatalf("drain report = %+v", rep)
	}
	if _, err := victim.eng.Get("f"); err == nil {
		t.Fatal("drained node still holds the relation")
	}
	applied := int(next.Load())
	t.Logf("%d of %d batches routed while the drain ran", during.Load(), applied)
	expectBundleEqual(t, mergedFleetBundle(t, []string{nodes[0].base, nodes[2].base}, "f"),
		mirrorOf(t, "f", applied), "drain under ingest")
}

// TestRouterRejoinAuditRefusesSurplus engineers the poisonous case: a
// node goes down holding DURABLE ops the router never saw acked (here:
// rows written out-of-band), recovers, and asks back in. The audit must
// refuse — merging that node would double-count the failed-over rows —
// and Forget must re-admit it only as an explicit operator decision.
func TestRouterRejoinAuditRefusesSurplus(t *testing.T) {
	nodes := startFleet(t, 2, true)
	rt := testRouter(t, nodes, nil)
	if err := rt.Define(coord.Schema{Relation: "f"}); err != nil {
		t.Fatal(err)
	}
	rs, err := rt.Relation("f")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := rs.Apply(false, 1, batchVals(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Drain(); err != nil {
		t.Fatal(err)
	}

	// Surplus: rows the router never acked appear in node 0's engine
	// (stand-in for "un-ACKed batches recovered from the oplog").
	rel, err := nodes[0].eng.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	rel.InsertBatch(batchVals(999))
	if err := nodes[0].eng.Drain(); err != nil {
		t.Fatal(err)
	}

	// Fail the node so the rejoin path (not the live path) judges it.
	old := nodes[0]
	old.stop()
	waitFor(t, 5*time.Second, "node 0 down", func() bool {
		return nodeState(rt, old.base) == "down"
	})
	// Bring it back on the SAME address with the same (surplus-bearing)
	// engine.
	host := old.base[len("http://"):]
	startFleetNode(t, old.eng, true, host)

	waitFor(t, 5*time.Second, "quarantine", func() bool {
		return nodeState(rt, old.base) == "quarantined"
	})
	var reasons []string
	for _, h := range rt.Health() {
		if h.Node == old.base {
			reasons = h.Reasons
		}
	}
	if len(reasons) == 0 {
		t.Fatal("quarantine carries no reason")
	}

	// Routing avoids the quarantined node.
	for i := 11; i <= 20; i++ {
		if err := rs.Apply(false, 1, batchVals(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Drain(); err != nil {
		t.Fatal(err)
	}

	// Forget rebaselines and re-admits (after a probe round).
	if err := rt.Forget(old.base); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "healthy after forget", func() bool {
		return nodeState(rt, old.base) == "healthy"
	})
}
