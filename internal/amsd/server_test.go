package amsd_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"amstrack/internal/amsd"
	"amstrack/internal/engine"
	"amstrack/internal/join"
	"amstrack/internal/oplog"
	"amstrack/internal/xrand"
)

func srvOpts() engine.Options {
	return engine.Options{SignatureWords: 128, SignatureRows: 4, Seed: 17, SketchS1: 64, SketchS2: 4}
}

// newServer builds an in-memory engine with two populated relations and
// serves it; maxBody <= 0 means the default cap.
func newServer(t *testing.T, maxBody int64) (*engine.Engine, *httptest.Server) {
	t.Helper()
	eng, err := engine.New(srvOpts())
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(9)
	for _, name := range []string{"orders", "items"} {
		rel, err := eng.Define(name)
		if err != nil {
			t.Fatal(err)
		}
		vs := make([]uint64, 2000)
		for i := range vs {
			vs[i] = r.Uint64n(100)
		}
		rel.InsertBatch(vs)
	}
	ts := httptest.NewServer(amsd.NewServerMaxBody(eng, maxBody))
	t.Cleanup(ts.Close)
	return eng, ts
}

func do(t *testing.T, method, url, contentType string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// exportBundle pulls a relation bundle from an engine for upload bodies.
func exportBundle(t *testing.T, e *engine.Engine, name string) []byte {
	t.Helper()
	b, err := e.ExportRelation(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestErrorPaths: every malformed, unknown, mismatched, or oversized
// request returns its intended status AND a JSON {"error": ...} body —
// never a 500, never a panic, never a non-JSON error.
func TestErrorPaths(t *testing.T) {
	_, ts := newServer(t, 4096) // small body cap to make "oversized" cheap

	// A bundle from a seed-mismatched engine (shape otherwise equal).
	foreignOpts := srvOpts()
	foreignOpts.Seed = 18
	foreign, err := engine.New(foreignOpts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := foreign.Define("orders"); err != nil {
		t.Fatal(err)
	}
	mismatched := exportBundle(t, foreign, "orders")

	// A bundle carrying the paper's flat signature: the codec decodes it,
	// but engines keep only the fast one.
	fam, err := join.NewFamily(srvOpts().SignatureWords, srvOpts().Seed)
	if err != nil {
		t.Fatal(err)
	}
	flatSig := fam.NewSignature()
	flatSig.InsertBatch([]uint64{1, 2, 3})
	flat, err := (&engine.RelationBundle{Sig: flatSig, Rows: flatSig.Len()}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	big := bytes.Repeat([]byte{'9'}, 8192) // over the 4 KiB cap
	bigJSON := []byte(fmt.Sprintf(`{"relation": "orders", "inserts": [%s]}`, big))

	cases := []struct {
		name        string
		method, url string
		body        []byte
		wantStatus  int
	}{
		{"ingest malformed JSON", "POST", "/v1/ingest", []byte(`{"relation": "orders", "inserts": [`), http.StatusBadRequest},
		{"define malformed JSON", "POST", "/v1/relations", []byte(`not json`), http.StatusBadRequest},
		{"ingest unknown relation", "POST", "/v1/ingest", []byte(`{"relation": "ghost", "inserts": [1]}`), http.StatusNotFound},
		{"define duplicate", "POST", "/v1/relations", []byte(`{"name": "orders"}`), http.StatusConflict},
		{"drop unknown", "DELETE", "/v1/relations/ghost", nil, http.StatusNotFound},
		{"selfjoin unknown", "GET", "/v1/selfjoin?relation=ghost", nil, http.StatusNotFound},
		{"join unknown", "GET", "/v1/join?f=orders&g=ghost", nil, http.StatusNotFound},
		{"export unknown", "GET", "/v1/signatures/ghost", nil, http.StatusNotFound},
		{"import over existing", "PUT", "/v1/signatures/orders", mismatched, http.StatusConflict},
		{"import mismatched seed", "PUT", "/v1/signatures/fresh", mismatched, http.StatusConflict},
		{"merge mismatched seed", "PUT", "/v1/signatures/orders?mode=merge", mismatched, http.StatusConflict},
		{"import flat-signature bundle", "PUT", "/v1/signatures/fresh", flat, http.StatusConflict},
		{"merge flat-signature bundle", "PUT", "/v1/signatures/orders?mode=merge", flat, http.StatusConflict},
		{"merge unknown relation", "PUT", "/v1/signatures/ghost?mode=merge", mismatched, http.StatusNotFound},
		{"import garbage bundle", "PUT", "/v1/signatures/fresh", []byte("definitely not a blob"), http.StatusBadRequest},
		{"import unknown mode", "PUT", "/v1/signatures/fresh?mode=sideways", mismatched, http.StatusBadRequest},
		{"oversized ingest body", "POST", "/v1/ingest", bigJSON, http.StatusRequestEntityTooLarge},
		{"oversized bundle upload", "PUT", "/v1/signatures/fresh", bytes.Repeat([]byte{7}, 8192), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := do(t, tc.method, ts.URL+tc.url, "application/octet-stream", tc.body)
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

// TestSignatureExchangeRoundTrip: export from node A → import on node B
// and merge a second partition, all over HTTP, with the imported
// relation's estimate matching the exporter's exactly.
func TestSignatureExchangeRoundTrip(t *testing.T) {
	engA, tsA := newServer(t, 0)
	engB, err := engine.New(srvOpts())
	if err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(amsd.NewServer(engB))
	defer tsB.Close()

	// Export "orders" from A.
	resp := do(t, "GET", tsA.URL+"/v1/signatures/orders", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("export content type = %q", ct)
	}
	bundle, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Import as a new relation on B → 201.
	resp = do(t, "PUT", tsB.URL+"/v1/signatures/orders", "application/octet-stream", bundle)
	var ib amsd.ImportBody
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("import status = %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ib); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ib.Mode != "import" || ib.Len != 2000 {
		t.Fatalf("import body = %+v", ib)
	}

	// The import is exact: B's imported "orders" answers A's self-join in
	// every digit.
	var sjA, sjB amsd.SelfJoinBody
	for _, c := range []struct {
		base string
		body *amsd.SelfJoinBody
	}{{tsA.URL, &sjA}, {tsB.URL, &sjB}} {
		resp = do(t, "GET", c.base+"/v1/selfjoin?relation=orders", "", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("selfjoin status = %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(c.body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	want, err := engA.Get("orders")
	if err != nil {
		t.Fatal(err)
	}
	if sjB != sjA || sjA.Estimate != want.SelfJoinEstimate() {
		t.Fatalf("imported selfjoin %+v, exporter %+v (engine %v)", sjB, sjA, want.SelfJoinEstimate())
	}

	// Merge the same bundle once more → doubled counts, status 200.
	resp = do(t, "PUT", tsB.URL+"/v1/signatures/orders?mode=merge", "application/octet-stream", bundle)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("merge status = %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ib); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ib.Mode != "merge" || ib.Len != 4000 {
		t.Fatalf("merge body = %+v", ib)
	}
}

// TestPairsMatrix: /v1/pairs answers every unordered pair once, in
// name order, each entry the /v1/join answer for that pair. Three
// relations of equal content estimate equally.
func TestPairsMatrix(t *testing.T) {
	eng, err := engine.New(srvOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"c", "a", "b"} {
		rel, err := eng.Define(n)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			rel.Insert(uint64(i % 10))
		}
	}
	ts := httptest.NewServer(amsd.NewServer(eng))
	t.Cleanup(ts.Close)
	get := func(path string, v any) {
		t.Helper()
		resp := do(t, "GET", ts.URL+path, "", nil)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	var pairs amsd.PairsBody
	get("/v1/pairs", &pairs)
	var order []string
	for _, p := range pairs.Pairs {
		order = append(order, p.F+p.G)
		var join amsd.JoinBody
		get("/v1/join?f="+p.F+"&g="+p.G, &join)
		if p != join {
			t.Errorf("pairs entry %+v, /v1/join %+v", p, join)
		}
		if p.Estimate != pairs.Pairs[0].Estimate {
			t.Errorf("pair %s-%s estimate %v differs from %v", p.F, p.G, p.Estimate, pairs.Pairs[0].Estimate)
		}
	}
	if fmt.Sprint(order) != "[ab ac bc]" {
		t.Fatalf("pairs = %v, want [ab ac bc]", order)
	}
}

// TestHealthzDurability: /healthz must expose the operator-facing
// durability block — checkpoint count and age, per-relation segment
// counts — and flip to "degraded" when the oplog takes a sticky error.
func TestHealthzDurability(t *testing.T) {
	ffs := oplog.NewFaultFS(nil)
	opts := srvOpts()
	opts.Dir = t.TempDir()
	opts.FS = ffs
	eng, err := engine.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rel, err := eng.Define("orders")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		rel.Insert(uint64(i))
	}
	if _, err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(amsd.NewServer(eng))
	t.Cleanup(ts.Close)

	get := func() amsd.HealthzBody {
		t.Helper()
		resp := do(t, "GET", ts.URL+"/healthz", "", nil)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz status = %d", resp.StatusCode)
		}
		var hb amsd.HealthzBody
		if err := json.NewDecoder(resp.Body).Decode(&hb); err != nil {
			t.Fatal(err)
		}
		return hb
	}

	hb := get()
	if hb.Status != "ok" || !hb.Durable {
		t.Fatalf("healthy body = %+v", hb)
	}
	if hb.Checkpoints < 1 || hb.LastCheckpointAgeSeconds <= 0 {
		t.Fatalf("checkpoint stats missing: %+v", hb)
	}
	if _, ok := hb.Segments["orders"]; !ok || len(hb.OplogErrors) != 0 {
		t.Fatalf("segment report = %+v", hb)
	}

	// Poison the oplog via a failing fsync; healthz must degrade and name
	// the relation.
	ffs.FailSync(errors.New("fsync: device on fire"))
	rel.Insert(1)
	_ = eng.Sync()
	_, _ = eng.Checkpoint()
	hb = get()
	if hb.Status != "degraded" {
		t.Fatalf("status after sticky error = %q, want degraded", hb.Status)
	}
	if hb.LastCheckpointError == "" && len(hb.OplogErrors) == 0 {
		t.Fatalf("degraded body carries no error detail: %+v", hb)
	}
}
