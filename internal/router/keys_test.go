package router

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"amstrack/internal/amsd"
	"amstrack/internal/coord"
)

// TestAnswerBodyKeys pins the JSON key set of every answer body a node,
// the cached coordinator and the router send: clients decode these by
// key, so a body type may change shape in Go but never on the wire. Key
// order is free.
func TestAnswerBodyKeys(t *testing.T) {
	const (
		join     = "estimate estimator f fact11 g sigma sjf sjg"
		chain    = "attr_a attr_b estimate f g h k sigma sjf sjg sjh upper"
		selfJoin = "estimate estimator len relation"
	)
	nodes := startFleet(t, 2, true)
	rt := testRouter(t, nodes, nil)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	client := front.Client()
	node := nodes[0].base

	// call sends one request and returns the answer's sorted top-level keys
	// (the first entry's, for an array under "pairs").
	call := func(method, url, contentType string, body []byte) string {
		t.Helper()
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode/100 != 2 {
			t.Fatalf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, raw)
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("%s %s: %v", method, url, err)
		}
		if pairs, ok := m["pairs"].([]any); ok {
			if len(pairs) == 0 {
				t.Fatalf("%s %s: no pairs", method, url)
			}
			m = pairs[0].(map[string]any)
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		return strings.Join(keys, " ")
	}
	post := func(url string, v any) string {
		t.Helper()
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return call(http.MethodPost, url, "application/json", raw)
	}

	got := map[string]string{}
	for _, def := range []amsd.DefineRequest{
		{Name: "f"},
		{Name: "g"},
		{Name: "cf", Attrs: []string{"a"}, ChainA: []string{"a"}},
		{Name: "cg", Attrs: []string{"a", "b"}, ChainAB: [][]string{{"a", "b"}}},
		{Name: "ch", Attrs: []string{"b"}, ChainB: []string{"b"}},
	} {
		got["router define"] = post(front.URL+"/v1/relations", def)
	}
	for _, ing := range []amsd.IngestRequest{
		{Relation: "f", Inserts: []uint64{1, 2, 2, 3}},
		{Relation: "g", Inserts: []uint64{2, 3, 3, 4}},
		{Relation: "cf", Inserts: []uint64{1, 2}},
		{Relation: "cg", InsertRows: [][]uint64{{1, 5}, {2, 6}}},
		{Relation: "ch", Inserts: []uint64{5, 6}},
	} {
		got["router ingest"] = post(front.URL+"/v1/ingest", ing)
	}
	got["amsd define"] = post(node+"/v1/relations", amsd.DefineRequest{Name: "solo"})
	got["amsd ingest"] = post(node+"/v1/ingest", amsd.IngestRequest{Relation: "solo", Inserts: []uint64{9}})

	chainReq := amsd.ChainJoinRequest{F: "cf", AttrA: "a", G: "cg", AttrB: "b", H: "ch"}
	got["amsd join"] = call(http.MethodGet, node+"/v1/join?f=f&g=g", "", nil)
	got["amsd pairs"] = call(http.MethodGet, node+"/v1/pairs", "", nil)
	got["amsd chain"] = post(node+"/v1/join/chain", chainReq)
	got["amsd selfjoin"] = call(http.MethodGet, node+"/v1/selfjoin?relation=f", "", nil)

	d, err := coord.NewDaemon(coord.Config{
		Nodes:     fleetBases(nodes),
		Relations: []string{"f", "g", "cf", "cg", "ch"},
		Refresh:   time.Hour,
		Fetcher:   coord.NewFetcher(&http.Client{Timeout: 5 * time.Second}, 2, 10*time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Sweep(); err != nil {
		t.Fatal(err)
	}
	cd := httptest.NewServer(d.Handler())
	t.Cleanup(cd.Close)
	got["coord join"] = call(http.MethodGet, cd.URL+"/v1/join?f=f&g=g", "", nil)
	got["coord pairs"] = call(http.MethodGet, cd.URL+"/v1/pairs", "", nil)
	got["coord chain"] = post(cd.URL+"/v1/join/chain", chainReq)
	got["coord selfjoin"] = call(http.MethodGet, cd.URL+"/v1/selfjoin?relation=f", "", nil)

	coordJoin := join + " freshness k nodes rows_f rows_g staleness_ms"
	coordChain := chain + " freshness nodes rows_f rows_g rows_h staleness_ms"
	for name, want := range map[string]string{
		"amsd join":      join,
		"amsd pairs":     join,
		"amsd chain":     chain,
		"amsd selfjoin":  selfJoin,
		"amsd define":    "attrs relation",
		"amsd ingest":    "deleted inserted len relation",
		"coord join":     coordJoin,
		"coord pairs":    coordJoin,
		"coord chain":    coordChain,
		"coord selfjoin": selfJoin + " freshness nodes staleness_ms",
		"router define":  "attrs relation",
		"router ingest":  "deleted inserted len relation",
	} {
		wantKeys := strings.Fields(want)
		slices.Sort(wantKeys)
		if got[name] != strings.Join(wantKeys, " ") {
			t.Errorf("%s keys = %q, want %q", name, got[name], strings.Join(wantKeys, " "))
		}
	}
}
