package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amstrack/internal/amsd"
	"amstrack/internal/engine"
)

// countingNode wraps an amsd handler and counts signature traffic, so
// the tests can assert the refresh loop's delta-awareness: stat probes
// are cheap and constant, full bundle fetches happen ONLY on change.
type countingNode struct {
	inner       http.Handler
	statCalls   atomic.Int64
	bundleCalls atomic.Int64
}

func (c *countingNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/v1/signatures/") && r.Method == http.MethodGet {
		if r.URL.Query().Get("stat") != "" {
			c.statCalls.Add(1)
		} else {
			c.bundleCalls.Add(1)
		}
	}
	c.inner.ServeHTTP(w, r)
}

// fakeClock is the daemon's time seam: staleness arithmetic follows this
// clock, so the tests age the cache without sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// daemonHarness is a two-node daemon over live amsd engines.
type daemonHarness struct {
	engines []*engine.Engine
	servers []*httptest.Server
	counts  []*countingNode
	urls    []string
	clock   *fakeClock
	d       *Daemon
	ts      *httptest.Server // the daemon's own HTTP surface
}

func newDaemonHarness(t *testing.T, opts engine.Options, relations []string, maxStale time.Duration) *daemonHarness {
	t.Helper()
	h := &daemonHarness{clock: newFakeClock()}
	for i := 0; i < 2; i++ {
		eng, err := engine.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, rel := range relations {
			if _, err := eng.Define(rel); err != nil {
				t.Fatal(err)
			}
		}
		cn := &countingNode{inner: amsd.NewServer(eng)}
		ts := httptest.NewServer(cn)
		t.Cleanup(ts.Close)
		h.engines = append(h.engines, eng)
		h.servers = append(h.servers, ts)
		h.counts = append(h.counts, cn)
		h.urls = append(h.urls, ts.URL)
	}
	d, err := NewDaemon(Config{
		Nodes:        h.urls,
		Relations:    relations,
		MaxStaleness: maxStale,
		Fetcher:      testFetcher(),
		now:          h.clock.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.d = d
	h.ts = httptest.NewServer(d.Handler())
	t.Cleanup(h.ts.Close)
	return h
}

func (h *daemonHarness) getJSON(t *testing.T, path string, wantStatus int, v any) {
	t.Helper()
	resp, err := http.Get(h.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var eb struct{ Error string }
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		t.Fatalf("GET %s: status %d (want %d): %s", path, resp.StatusCode, wantStatus, eb.Error)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
}

func ingestSome(t *testing.T, e *engine.Engine, rel string, vals []uint64) {
	t.Helper()
	r, err := e.Get(rel)
	if err != nil {
		t.Fatal(err)
	}
	r.InsertBatch(vals)
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonCachedBitIdentical is the serving-tier acceptance path: the
// daemon's cached /v1/join answer equals a fresh one-shot pull in every
// digit, and the cached merged bundle is byte-identical to MergeAcross
// pulling live — the cache serves the exact synopses, not an
// approximation of them.
func TestDaemonCachedBitIdentical(t *testing.T) {
	t.Run("absorber", func(t *testing.T) {
		h := newDaemonHarness(t, nodeOpts(), []string{"orders", "lineitems"}, 0)
		for i, e := range h.engines {
			base := uint64(i * 50000)
			vals := make([]uint64, 4000)
			for j := range vals {
				vals[j] = base + uint64(j%512)
			}
			ingestSome(t, e, "orders", vals)
			ingestSome(t, e, "lineitems", vals[:2000])
		}
		if err := h.d.Sweep(); err != nil {
			t.Fatal(err)
		}

		var cached JoinBody
		h.getJSON(t, "/v1/join?f=orders&g=lineitems", http.StatusOK, &cached)

		fresh, err := Coordinate(testFetcher(), h.urls, "orders", "lineitems", true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cached.Estimate != fresh.Estimate || cached.Sigma != fresh.Sigma ||
			cached.Fact11 != fresh.Fact11 || cached.SJF != fresh.SJF || cached.SJG != fresh.SJG {
			t.Fatalf("cached answer %+v != fresh pull %+v", cached, fresh)
		}
		if cached.RowsF != 8000 || cached.RowsG != 4000 || cached.Nodes != 2 {
			t.Fatalf("rows/nodes = %+v", cached)
		}
		if cached.StalenessMS != 0 || len(cached.Freshness) != 4 {
			t.Fatalf("staleness/freshness = %d / %d entries", cached.StalenessMS, len(cached.Freshness))
		}

		// The cached merged bundle bytes vs a live MergeAcross pull.
		mergedCached, _, _, err := h.d.lookup("orders")
		if err != nil {
			t.Fatal(err)
		}
		cachedBlob, err := mergedCached.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		mergedLive, _, err := MergeAcross(testFetcher(), h.urls, "orders", true, nil)
		if err != nil {
			t.Fatal(err)
		}
		liveBlob, err := mergedLive.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cachedBlob, liveBlob) {
			t.Fatal("cached merged bundle differs from a live pull")
		}
	})
}

// TestDaemonConcurrentJoinsBitIdentical runs two clients issuing
// /v1/join at once against one cached bundle pair. Estimating reads the
// shared cached sketches, so every concurrent answer must equal the
// serial one in every digit, and -race must see no write.
func TestDaemonConcurrentJoinsBitIdentical(t *testing.T) {
	h := newDaemonHarness(t, nodeOpts(), []string{"orders", "lineitems"}, 0)
	for i, e := range h.engines {
		vals := make([]uint64, 3000)
		for j := range vals {
			vals[j] = uint64(i*7 + j%300)
		}
		ingestSome(t, e, "orders", vals)
		ingestSome(t, e, "lineitems", vals[:1500])
	}
	if err := h.d.Sweep(); err != nil {
		t.Fatal(err)
	}
	var want JoinBody
	h.getJSON(t, "/v1/join?f=orders&g=lineitems", http.StatusOK, &want)

	join := func() (JoinBody, error) {
		var got JoinBody
		resp, err := http.Get(h.ts.URL + "/v1/join?f=orders&g=lineitems")
		if err != nil {
			return got, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return got, fmt.Errorf("status %d", resp.StatusCode)
		}
		return got, json.NewDecoder(resp.Body).Decode(&got)
	}
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, err := join()
				if err != nil {
					t.Error(err)
					return
				}
				if got.Estimate != want.Estimate || got.Sigma != want.Sigma || got.Fact11 != want.Fact11 ||
					got.SJF != want.SJF || got.SJG != want.SJG {
					t.Errorf("concurrent answer %+v != serial %+v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDaemonStatSkip pins the delta-aware refresh: sweeps against an
// unchanged node cost one stat probe per (node, relation) and ZERO
// bundle fetches; an ingest triggers exactly the changed relation's
// refetch on the next sweep, and the cached answer follows it.
func TestDaemonStatSkip(t *testing.T) {
	h := newDaemonHarness(t, nodeOpts(), []string{"orders", "lineitems"}, 0)
	for _, e := range h.engines {
		ingestSome(t, e, "orders", []uint64{1, 2, 3})
		ingestSome(t, e, "lineitems", []uint64{2, 3, 4})
	}
	if err := h.d.Sweep(); err != nil {
		t.Fatal(err)
	}
	if got := h.counts[0].bundleCalls.Load(); got != 2 {
		t.Fatalf("first sweep fetched %d bundles from node 0, want 2", got)
	}

	// Quiet sweeps: stats only, bundles untouched.
	for i := 0; i < 3; i++ {
		if err := h.d.Sweep(); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.counts[0].bundleCalls.Load(); got != 2 {
		t.Fatalf("quiet sweeps refetched bundles (count %d, want still 2)", got)
	}
	if got := h.counts[0].statCalls.Load(); got != 8 { // 4 sweeps x 2 relations
		t.Fatalf("stat probes = %d, want 8", got)
	}

	// Ingest into ONE relation on ONE node: the next sweep refetches
	// exactly that bundle, and the served rows move.
	var before JoinBody
	h.getJSON(t, "/v1/join?f=orders&g=lineitems", http.StatusOK, &before)
	ingestSome(t, h.engines[0], "orders", []uint64{7, 8})
	if err := h.d.Sweep(); err != nil {
		t.Fatal(err)
	}
	if got := h.counts[0].bundleCalls.Load(); got != 3 {
		t.Fatalf("post-ingest sweep fetched %d bundles from node 0, want 3 (one delta)", got)
	}
	if got := h.counts[1].bundleCalls.Load(); got != 2 {
		t.Fatalf("post-ingest sweep refetched from the unchanged node (count %d, want 2)", got)
	}
	var after JoinBody
	h.getJSON(t, "/v1/join?f=orders&g=lineitems", http.StatusOK, &after)
	if after.RowsF != before.RowsF+2 {
		t.Fatalf("served rows_f = %d, want %d", after.RowsF, before.RowsF+2)
	}
}

// TestDaemonNodeLossServesStale: killing a node must NOT take the
// coordinator down — the last good copy keeps serving, the answer's
// staleness bound grows with the fake clock, and /healthz reports
// degraded naming the dead node. When the relation ages past
// MaxStaleness the daemon refuses with 503 rather than serve an answer
// whose error is no longer bounded.
func TestDaemonNodeLossServesStale(t *testing.T) {
	const maxStale = 10 * time.Second
	h := newDaemonHarness(t, nodeOpts(), []string{"orders"}, maxStale)
	for _, e := range h.engines {
		ingestSome(t, e, "orders", []uint64{1, 2, 3, 4, 5})
	}
	if err := h.d.Sweep(); err != nil {
		t.Fatal(err)
	}
	var healthy HealthzBody
	h.getJSON(t, "/healthz", http.StatusOK, &healthy)
	if healthy.Status != "ok" {
		t.Fatalf("healthz before node loss: %+v", healthy)
	}

	h.servers[1].Close() // node 1 dies
	h.clock.advance(3 * time.Second)
	if err := h.d.Sweep(); err == nil {
		t.Fatal("sweep against a dead node reported no error")
	}

	// Still serving: node 0's copy is fresh, node 1's is 3s old, so the
	// answer is correct-as-of-3s-ago and says so.
	var res JoinBody
	h.getJSON(t, "/v1/join?f=orders&g=orders", http.StatusOK, &res)
	if res.RowsF != 10 {
		t.Fatalf("rows after node loss = %d, want 10 (last good copy)", res.RowsF)
	}
	if res.StalenessMS != 3000 {
		t.Fatalf("staleness_ms = %d, want 3000", res.StalenessMS)
	}
	var degraded HealthzBody
	h.getJSON(t, "/healthz", http.StatusOK, &degraded)
	if degraded.Status != "degraded" {
		t.Fatalf("healthz after node loss: %+v", degraded)
	}
	if degraded.Nodes[1].OK || degraded.Nodes[1].Error == "" {
		t.Fatalf("dead node not reported: %+v", degraded.Nodes)
	}
	if degraded.Relations["orders"] != 3000 {
		t.Fatalf("healthz staleness = %d, want 3000", degraded.Relations["orders"])
	}

	// Age past the bound: refuse rather than serve unbounded staleness.
	h.clock.advance(8 * time.Second)
	var eb struct{ Error string }
	resp, err := http.Get(h.ts.URL + "/v1/join?f=orders&g=orders")
	if err != nil {
		t.Fatal(err)
	}
	_ = json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("past-bound query: status %d, want 503 (%s)", resp.StatusCode, eb.Error)
	}
	for _, want := range []string{"staleness", "10s"} {
		if !strings.Contains(eb.Error, want) {
			t.Fatalf("503 body %q does not mention %q", eb.Error, want)
		}
	}
}

// TestDaemonRelationDrop: a relation deleted from a node falls out of
// that node's cache on the next sweep (the 404 is a drop, not an error),
// and the merged answer re-forms from the remaining copies.
func TestDaemonRelationDrop(t *testing.T) {
	h := newDaemonHarness(t, nodeOpts(), []string{"orders"}, 0)
	for _, e := range h.engines {
		ingestSome(t, e, "orders", []uint64{1, 2, 3})
	}
	if err := h.d.Sweep(); err != nil {
		t.Fatal(err)
	}
	if err := h.engines[1].Drop("orders"); err != nil {
		t.Fatal(err)
	}
	if err := h.d.Sweep(); err != nil {
		t.Fatalf("sweep after relation drop: %v (a 404 is a drop, not a failure)", err)
	}
	var res JoinBody
	h.getJSON(t, "/v1/join?f=orders&g=orders", http.StatusOK, &res)
	if res.RowsF != 3 || res.Nodes != 1 {
		t.Fatalf("after drop: rows=%d nodes=%d, want 3/1", res.RowsF, res.Nodes)
	}

	// Dropped everywhere: the relation becomes a 404 at the daemon too.
	if err := h.engines[0].Drop("orders"); err != nil {
		t.Fatal(err)
	}
	if err := h.d.Sweep(); err != nil {
		t.Fatal(err)
	}
	h.getJSON(t, "/v1/join?f=orders&g=orders", http.StatusNotFound, nil)
}

// TestDaemonChainAndPairs: the chain endpoint and the planning matrix
// answer from the same cache, bit-identical to their fresh-pull
// counterparts.
func TestDaemonChainAndPairs(t *testing.T) {
	data := makeChainData(t)
	clock := newFakeClock()
	urls := make([]string, 2)
	for i := range urls {
		eng, err := engine.New(chainNodeOpts())
		if err != nil {
			t.Fatal(err)
		}
		defineChainRels(t, eng)
		data.ingestPart(t, eng, i, 2)
		ts := httptest.NewServer(amsd.NewServer(eng))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	d, err := NewDaemon(Config{
		Nodes:     urls,
		Relations: []string{"forders", "glineitem", "hparts"},
		Fetcher:   testFetcher(),
		now:       clock.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Sweep(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(ts.Close)

	body, err := json.Marshal(ChainJoinRequest{F: "forders", AttrA: "a", G: "glineitem", AttrB: "b", H: "hparts"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/join/chain", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var chain ChainJoinBody
	if err := json.NewDecoder(resp.Body).Decode(&chain); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chain status %d", resp.StatusCode)
	}
	fresh, err := CoordinateChain(testFetcher(), urls, "forders", "a", "glineitem", "b", "hparts", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Estimate != fresh.Estimate || chain.Sigma != fresh.Sigma || chain.Upper != fresh.Upper ||
		chain.SJF != fresh.SJF || chain.SJG != fresh.SJG || chain.SJH != fresh.SJH {
		t.Fatalf("cached chain %+v != fresh %+v", chain, fresh)
	}
	if chain.Nodes != 2 || chain.StalenessMS != 0 {
		t.Fatalf("chain nodes/staleness = %d/%d", chain.Nodes, chain.StalenessMS)
	}

	var pairs PairsBody
	presp, err := http.Get(ts.URL + "/v1/pairs")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(presp.Body).Decode(&pairs); err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if len(pairs.Pairs) != 3 { // C(3,2) over the cached relations
		t.Fatalf("pairs matrix has %d entries, want 3", len(pairs.Pairs))
	}
	for _, p := range pairs.Pairs {
		freshPair, err := Coordinate(testFetcher(), urls, p.F, p.G, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.Estimate != freshPair.Estimate {
			t.Fatalf("pair %s/%s cached %v != fresh %v", p.F, p.G, p.Estimate, freshPair.Estimate)
		}
	}
}

// TestDaemonBackgroundRefresh drives the REAL timer loops (no Sweep):
// Start must warm the cache and then pick up an ingest within a few
// jittered refresh intervals.
func TestDaemonBackgroundRefresh(t *testing.T) {
	h := newDaemonHarnessRefresh(t, 10*time.Millisecond)
	for _, e := range h.engines {
		ingestSome(t, e, "orders", []uint64{1, 2, 3})
	}
	h.d.Start()
	defer h.d.Stop()

	waitFor := func(wantRows int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := http.Get(h.ts.URL + "/v1/join?f=orders&g=orders")
			if err != nil {
				t.Fatal(err)
			}
			var res JoinBody
			ok := resp.StatusCode == http.StatusOK &&
				json.NewDecoder(resp.Body).Decode(&res) == nil && res.RowsF == wantRows
			resp.Body.Close()
			if ok {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("background refresh never served rows=%d", wantRows)
	}
	waitFor(6)
	ingestSome(t, h.engines[0], "orders", []uint64{9, 10})
	waitFor(8)
}

// newDaemonHarnessRefresh builds a harness on the real clock with a fast
// refresh interval, for the background-loop test.
func newDaemonHarnessRefresh(t *testing.T, refresh time.Duration) *daemonHarness {
	t.Helper()
	h := &daemonHarness{}
	for i := 0; i < 2; i++ {
		eng, err := engine.New(nodeOpts())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Define("orders"); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(amsd.NewServer(eng))
		t.Cleanup(ts.Close)
		h.engines = append(h.engines, eng)
		h.servers = append(h.servers, ts)
		h.urls = append(h.urls, ts.URL)
	}
	d, err := NewDaemon(Config{
		Nodes:     h.urls,
		Relations: []string{"orders"},
		Refresh:   refresh,
		Fetcher:   testFetcher(),
	})
	if err != nil {
		t.Fatal(err)
	}
	h.d = d
	h.ts = httptest.NewServer(d.Handler())
	t.Cleanup(h.ts.Close)
	return h
}

// TestDaemonSkimmedMatchesNode: behind the daemon, one amsd node holding
// two skimming relations. The coordinator answers with the same function
// as the node, so its /v1/join, its /v1/pairs entry and the one-shot
// Coordinate equal the node's own /v1/join in every digit — estimate,
// σ, both self-joins — and name the same estimator.
func TestDaemonSkimmedMatchesNode(t *testing.T) {
	eng, node := newNode(t)
	for i, name := range []string{"f", "g"} {
		r, err := eng.DefineSchema(name, engine.Schema{SkimHitters: 32})
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]uint64, 6000)
		for j := range vals {
			// A few hot keys over a long tail.
			vals[j] = uint64((j*7919 + i) % 1500)
			if j%3 != 0 {
				vals[j] = uint64(j % (5 + i))
			}
		}
		r.InsertBatch(vals)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(Config{Nodes: []string{node.URL}, Relations: []string{"f", "g"}, Fetcher: testFetcher()})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Sweep(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	get := func(url string, v any) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", url, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	var want amsd.JoinBody
	get(node.URL+"/v1/join?f=f&g=g", &want)
	if want.Estimator != "skimmed" {
		t.Fatalf("node answered with %q, want skimmed", want.Estimator)
	}
	var cached JoinBody
	get(ts.URL+"/v1/join?f=f&g=g", &cached)
	var pairs PairsBody
	get(ts.URL+"/v1/pairs", &pairs)
	if len(pairs.Pairs) != 1 {
		t.Fatalf("pairs = %+v", pairs)
	}
	oneShot, err := Coordinate(testFetcher(), []string{node.URL}, "f", "g", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]JoinBody{
		"/v1/join":   cached,
		"/v1/pairs":  pairs.Pairs[0],
		"Coordinate": *oneShot,
	} {
		if got.Estimate != want.Estimate || got.Sigma != want.Sigma || got.SJF != want.SJF ||
			got.SJG != want.SJG || got.Estimator != want.Estimator {
			t.Errorf("coordinator %s answered %v±%v (SJ %v/%v, %q), node %v±%v (SJ %v/%v, %q)", name,
				got.Estimate, got.Sigma, got.SJF, got.SJG, got.Estimator,
				want.Estimate, want.Sigma, want.SJF, want.SJG, want.Estimator)
		}
	}
}

// TestDaemonChainErrorsMatchNode: a chain join the synopses cannot
// answer gets the status a node gives the same request — 409 for an
// attribute without the chain synopsis the join needs, as amsd maps
// engine.ErrAttrNotTracked.
func TestDaemonChainErrorsMatchNode(t *testing.T) {
	data := makeChainData(t)
	urls := make([]string, 2)
	for i := range urls {
		eng, err := engine.New(chainNodeOpts())
		if err != nil {
			t.Fatal(err)
		}
		defineChainRels(t, eng)
		data.ingestPart(t, eng, i, 2)
		ts := httptest.NewServer(amsd.NewServer(eng))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	d, err := NewDaemon(Config{Nodes: urls, Relations: []string{"forders", "glineitem", "hparts"}, Fetcher: testFetcher()})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Sweep(); err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(d.Handler())
	t.Cleanup(coordTS.Close)

	for _, tc := range []struct {
		name string
		req  ChainJoinRequest
	}{
		{"untracked attribute", ChainJoinRequest{F: "forders", AttrA: "zz", G: "glineitem", AttrB: "b", H: "hparts"}},
		{"end declared on the other side", ChainJoinRequest{F: "hparts", AttrA: "b", G: "glineitem", AttrB: "b", H: "hparts"}},
	} {
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		for _, base := range []string{urls[0], coordTS.URL} {
			resp, err := http.Post(base+"/v1/join/chain", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusConflict {
				t.Errorf("%s at %s: status %d, want 409", tc.name, base, resp.StatusCode)
			}
		}
	}
}

// TestDaemonBodyCap: the coordinator caps request bodies as amsd and the
// router do, answering an overrun with a JSON 413.
func TestDaemonBodyCap(t *testing.T) {
	d, err := NewDaemon(Config{Nodes: []string{"http://127.0.0.1:1"}, Relations: []string{"f"}, Fetcher: testFetcher()})
	if err != nil {
		t.Fatal(err)
	}
	d.maxBody = 1 << 10 // small cap keeps the over-cap body cheap
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(ts.Close)

	body := `{"f":"` + strings.Repeat("x", 2<<10) + `"}`
	resp, err := http.Post(ts.URL+"/v1/join/chain", "application/json", strings.NewReader(body))
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
}
