package coord

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"amstrack/internal/amsd"
	"amstrack/internal/engine"
)

// TestEstimateParityWithNode sends every estimate request to one amsd
// node and to a coordinator caching that node alone. Over one node the
// merged synopses are the node's own, so the two must answer alike: the
// same status, the same error text, and estimate fields equal in every
// bit. The coordinator's answers differ only by the tier-only keys
// listed per route, which carry its cache's evidence.
func TestEstimateParityWithNode(t *testing.T) {
	const maxBody = 4 << 10
	eng, err := engine.New(chainNodeOpts())
	if err != nil {
		t.Fatal(err)
	}
	defineChainRels(t, eng)
	makeChainData(t).ingestPart(t, eng, 0, 1)
	for i, name := range []string{"orders", "lineitem", "sorders", "slineitem"} {
		sc := engine.Schema{}
		if strings.HasPrefix(name, "s") {
			sc.SkimHitters = 16
		}
		r, err := eng.DefineSchema(name, sc)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]uint64, 5000)
		for j := range vals {
			vals[j] = uint64((j*7919 + i) % 900)
			if j%3 != 0 {
				vals[j] = uint64(j % (4 + i))
			}
		}
		r.InsertBatch(vals)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	node := httptest.NewServer(amsd.NewServerMaxBody(eng, maxBody))
	t.Cleanup(node.Close)

	d, err := NewDaemon(Config{Nodes: []string{node.URL}, Relations: eng.Names(), Fetcher: testFetcher()})
	if err != nil {
		t.Fatal(err)
	}
	d.maxBody = maxBody
	if err := d.Sweep(); err != nil {
		t.Fatal(err)
	}
	coord := httptest.NewServer(d.Handler())
	t.Cleanup(coord.Close)

	const (
		selfJoinOnly = "freshness nodes staleness_ms"
		joinOnly     = "freshness k nodes rows_f rows_g staleness_ms"
		chainOnly    = "freshness nodes rows_f rows_g rows_h staleness_ms"
	)
	chain := `{"f":"forders","attr_a":"a","g":"glineitem","attr_b":"b","h":"hparts"}`
	cases := []struct {
		name, method, path, body string
		tierOnly                 string // the coordinator's extra keys on a 200
	}{
		{"selfjoin ok", "GET", "/v1/selfjoin?relation=orders", "", selfJoinOnly},
		{"selfjoin skimmed ok", "GET", "/v1/selfjoin?relation=sorders", "", selfJoinOnly},
		{"selfjoin chain middle ok", "GET", "/v1/selfjoin?relation=glineitem", "", selfJoinOnly},
		{"selfjoin unknown relation", "GET", "/v1/selfjoin?relation=ghost", "", ""},
		{"selfjoin missing parameter", "GET", "/v1/selfjoin", "", ""},
		{"join ok", "GET", "/v1/join?f=orders&g=lineitem", "", joinOnly},
		{"join skimmed ok", "GET", "/v1/join?f=sorders&g=slineitem", "", joinOnly},
		{"join mixed ok", "GET", "/v1/join?f=orders&g=slineitem", "", joinOnly},
		{"join unknown relation", "GET", "/v1/join?f=orders&g=ghost", "", ""},
		{"join missing parameter", "GET", "/v1/join?f=orders", "", ""},
		{"chain ok", "POST", "/v1/join/chain", chain, chainOnly},
		{"chain unknown relation", "POST", "/v1/join/chain",
			`{"f":"ghost","attr_a":"a","g":"glineitem","attr_b":"b","h":"hparts"}`, ""},
		{"chain missing parameter", "POST", "/v1/join/chain", `{"f":"forders","attr_a":"a"}`, ""},
		{"chain untracked attribute", "POST", "/v1/join/chain",
			`{"f":"forders","attr_a":"zz","g":"glineitem","attr_b":"b","h":"hparts"}`, ""},
		{"chain end on the other side", "POST", "/v1/join/chain",
			`{"f":"hparts","attr_a":"b","g":"glineitem","attr_b":"b","h":"hparts"}`, ""},
		// A field the request body does not define is a 400 on every
		// tier: a client of the removed cross-node path must not get a
		// smaller answer without an error.
		{"chain unknown field", "POST", "/v1/join/chain",
			`{"f":"forders","attr_a":"a","g":"glineitem","attr_b":"b","h":"hparts","remote_g":"Z2FyYmFnZQ=="}`, ""},
		{"chain trailing data", "POST", "/v1/join/chain", chain + ` x`, ""},
		{"chain over-cap body", "POST", "/v1/join/chain",
			`{"f":"` + strings.Repeat("f", 2*maxBody) + `"}`, ""},
		{"pairs ok", "GET", "/v1/pairs", "", joinOnly},
		{"no route", "GET", "/nope", "", ""},
		{"method not allowed", "POST", "/v1/selfjoin?relation=orders", "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nodeStatus, nodeBody := parityCall(t, tc.method, node.URL+tc.path, tc.body)
			coordStatus, coordBody := parityCall(t, tc.method, coord.URL+tc.path, tc.body)
			if nodeStatus != coordStatus {
				t.Fatalf("status: node %d, coordinator %d (%s)", nodeStatus, coordStatus, coordBody)
			}
			if nodeStatus != http.StatusOK {
				if tc.tierOnly != "" {
					t.Fatalf("node answered %d: %s", nodeStatus, nodeBody)
				}
				if ne, ce := errorText(nodeBody), errorText(coordBody); ne != ce {
					t.Fatalf("error text: node %q, coordinator %q", ne, ce)
				}
				return
			}
			if tc.tierOnly == "" {
				t.Fatalf("both answered 200, want an error: %s", nodeBody)
			}
			nodeAnswers, coordAnswers := answers(t, nodeBody), answers(t, coordBody)
			if len(nodeAnswers) == 0 || len(nodeAnswers) != len(coordAnswers) {
				t.Fatalf("node gives %d answers, coordinator %d", len(nodeAnswers), len(coordAnswers))
			}
			for i, want := range nodeAnswers {
				got := coordAnswers[i]
				var extra []string
				for k := range got {
					if _, ok := want[k]; !ok {
						extra = append(extra, k)
						delete(got, k)
					}
				}
				slices.Sort(extra)
				if strings.Join(extra, " ") != tc.tierOnly {
					t.Errorf("answer %d: coordinator-only keys %q, want %q", i, extra, tc.tierOnly)
				}
				for k, v := range want {
					if !bytes.Equal(got[k], v) {
						t.Errorf("answer %d: %s: node %s, coordinator %s", i, k, v, got[k])
					}
				}
			}
		})
	}
}

// parityCall sends one request and returns the status and raw body.
func parityCall(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// errorText is a JSON error body's message, or the whole body when it is
// not one.
func errorText(body []byte) string {
	var eb struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &eb) != nil || eb.Error == "" {
		return "not a JSON error: " + string(body)
	}
	return eb.Error
}

// answers decodes an answer body by key: the body itself, or each entry
// of a /v1/pairs matrix.
func answers(t *testing.T, body []byte) []map[string]json.RawMessage {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("answer is not a JSON object: %v: %s", err, body)
	}
	raw, ok := m["pairs"]
	if !ok {
		return []map[string]json.RawMessage{m}
	}
	var pairs []map[string]json.RawMessage
	if err := json.Unmarshal(raw, &pairs); err != nil {
		t.Fatal(err)
	}
	return pairs
}
