package amsd_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"amstrack/internal/amsd"
	"amstrack/internal/engine"
	"amstrack/internal/xrand"
)

func chainSrvOpts() engine.Options {
	return engine.Options{SignatureWords: 64, ChainWords: 256, Seed: 21, SketchS1: 32, SketchS2: 2}
}

// newChainServer builds an engine with the F(a) ⋈a G(a,b) ⋈b H(b)
// schema, some data, and serves it.
func newChainServer(t *testing.T, maxBody int64) (*engine.Engine, *httptest.Server) {
	t.Helper()
	eng, err := engine.New(chainSrvOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.DefineSchema("f", engine.Schema{Attrs: []string{"a"}, EndA: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.DefineSchema("g", engine.Schema{
		Attrs: []string{"a", "b"}, Middle: [][2]string{{"a", "b"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.DefineSchema("h", engine.Schema{Attrs: []string{"b"}, EndB: []string{"b"}}); err != nil {
		t.Fatal(err)
	}
	r := xrand.New(3)
	rf, _ := eng.Get("f")
	rg, _ := eng.Get("g")
	rh, _ := eng.Get("h")
	for i := 0; i < 1500; i++ {
		rf.Insert(r.Uint64n(50))
		rg.InsertTuple(r.Uint64n(50), r.Uint64n(50))
		rh.Insert(r.Uint64n(50))
	}
	ts := httptest.NewServer(amsd.NewServerMaxBody(eng, maxBody))
	t.Cleanup(ts.Close)
	return eng, ts
}

// chainReq serializes a ChainJoinRequest body.
func chainReq(t *testing.T, req amsd.ChainJoinRequest) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestChainJoinErrorPaths is the /v1/join/chain error table: unknown
// relation 404, attribute not tracked 409, oversized body 413, malformed
// input 400 — always a JSON {"error": ...} body.
func TestChainJoinErrorPaths(t *testing.T) {
	_, ts := newChainServer(t, 16384)

	ok := amsd.ChainJoinRequest{F: "f", AttrA: "a", G: "g", AttrB: "b", H: "h"}
	unknownRel := ok
	unknownRel.F = "ghost"
	badAttr := ok
	badAttr.AttrA = "zz"
	wrongSide := amsd.ChainJoinRequest{F: "h", AttrA: "b", G: "g", AttrB: "b", H: "h"}
	oversized := ok
	oversized.G = strings.Repeat("g", 32768) // over the 16 KiB cap

	cases := []struct {
		name       string
		body       []byte
		wantStatus int
	}{
		{"malformed JSON", []byte(`{"f": [`), http.StatusBadRequest},
		{"missing params", chainReq(t, amsd.ChainJoinRequest{F: "f"}), http.StatusBadRequest},
		{"unknown relation", chainReq(t, unknownRel), http.StatusNotFound},
		{"attribute not tracked", chainReq(t, badAttr), http.StatusConflict},
		{"end declared on the other side", chainReq(t, wrongSide), http.StatusConflict},
		{"oversized body", chainReq(t, oversized), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := do(t, "POST", ts.URL+"/v1/join/chain", "application/json", tc.body)
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			var eb struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatalf("error body is not JSON: %v", err)
			}
			if eb.Error == "" {
				t.Fatal("error body has empty error field")
			}
		})
	}
}

// TestChainJoinHappyPath: the HTTP answer equals the engine's own.
func TestChainJoinHappyPath(t *testing.T) {
	eng, ts := newChainServer(t, 0)
	body := chainReq(t, amsd.ChainJoinRequest{F: "f", AttrA: "a", G: "g", AttrB: "b", H: "h"})
	resp := do(t, "POST", ts.URL+"/v1/join/chain", "application/json", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var cb amsd.ChainJoinBody
	if err := json.NewDecoder(resp.Body).Decode(&cb); err != nil {
		t.Fatal(err)
	}
	want, err := eng.EstimateChainJoin("f", "a", "g", "b", "h")
	if err != nil {
		t.Fatal(err)
	}
	if cb.Estimate != want.Estimate || cb.Sigma != want.Sigma || cb.Upper != want.Upper ||
		cb.SJF != want.SJF || cb.SJG != want.SJG || cb.SJH != want.SJH || cb.K != want.K {
		t.Fatalf("HTTP chain answer %+v != engine %+v", cb, want)
	}
	if cb.Estimate == 0 || cb.Sigma <= 0 {
		t.Fatalf("degenerate chain answer: %+v", cb)
	}
}

// TestChainSchemaDefineAndIngestHTTP: schema declaration and tuple
// ingest over HTTP, including the arity 400s and the signature exchange
// carrying chain sections.
func TestChainSchemaDefineAndIngestHTTP(t *testing.T) {
	eng, ts := newChainServer(t, 0)

	// Define a schema'd relation over HTTP.
	resp := do(t, "POST", ts.URL+"/v1/relations", "application/json",
		[]byte(`{"name": "g2", "attrs": ["x", "y"], "chain_a": ["x"], "chain_b": ["y"], "chain_ab": [["x", "y"]]}`))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("define status = %d", resp.StatusCode)
	}
	var db amsd.DefineBody
	if err := json.NewDecoder(resp.Body).Decode(&db); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(db.Attrs) != 2 || db.Attrs[0] != "x" {
		t.Fatalf("define body = %+v", db)
	}
	// Malformed chain_ab entry → 400.
	resp = do(t, "POST", ts.URL+"/v1/relations", "application/json",
		[]byte(`{"name": "g3", "attrs": ["x"], "chain_ab": [["x"]]}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("lopsided chain_ab status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Tuple ingest; response Len counts rows.
	resp = do(t, "POST", ts.URL+"/v1/ingest", "application/json",
		[]byte(`{"relation": "g2", "insert_rows": [[1,2],[3,4],[1,2]], "delete_rows": [[1,2]]}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tuple ingest status = %d", resp.StatusCode)
	}
	var ib amsd.IngestBody
	if err := json.NewDecoder(resp.Body).Decode(&ib); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ib.Inserted != 3 || ib.Deleted != 1 || ib.Len != 2 {
		t.Fatalf("tuple ingest body = %+v", ib)
	}

	// Plain values on a multi-attribute relation → 400; wrong-width row → 400.
	for _, body := range []string{
		`{"relation": "g2", "inserts": [1]}`,
		`{"relation": "g2", "insert_rows": [[1]]}`,
		`{"relation": "g2", "delete_rows": [[1,2,3]]}`,
	} {
		resp = do(t, "POST", ts.URL+"/v1/ingest", "application/json", []byte(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("arity-mismatched ingest %s → status %d", body, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// The exported bundle round-trips the chain section over HTTP.
	resp = do(t, "GET", ts.URL+"/v1/signatures/g", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export status = %d", resp.StatusCode)
	}
	bundle := new(bytes.Buffer)
	if _, err := bundle.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	engB, err := engine.New(chainSrvOpts())
	if err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(amsd.NewServer(engB))
	defer tsB.Close()
	resp = do(t, "PUT", tsB.URL+"/v1/signatures/g", "application/octet-stream", bundle.Bytes())
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("import status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	got, err := engB.ExportRelation("g")
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.ExportRelation("g")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("chain bundle did not round-trip byte-identically over HTTP")
	}
}
