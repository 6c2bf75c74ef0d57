package coord

// The daemon's HTTP surface. Every estimate endpoint answers from the
// merged cache — zero node round trips on the query path — and carries
// its staleness evidence: staleness_ms is the age of the OLDEST node
// copy the answer depends on (the bound on how much ingest it can be
// missing), freshness itemizes each contributing node. /healthz goes
// degraded when any refresh loop is failing or any relation has aged
// past the serving bound.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// JoinBody is the GET /v1/join response: the coordinated estimate with
// the paper's bounds, the estimator that answered ("skimmed" when both
// merged bundles carry heavy-hitter tables, "sketch" otherwise), plus the
// cache's staleness evidence.
type JoinBody struct {
	F           string         `json:"f"`
	G           string         `json:"g"`
	Nodes       int            `json:"nodes"`
	RowsF       int64          `json:"rows_f"`
	RowsG       int64          `json:"rows_g"`
	Estimate    float64        `json:"estimate"`
	Sigma       float64        `json:"sigma"`
	Fact11      float64        `json:"fact11"`
	SJF         float64        `json:"sjf"`
	SJG         float64        `json:"sjg"`
	K           int            `json:"k"`
	Estimator   string         `json:"estimator"`
	StalenessMS int64          `json:"staleness_ms"`
	Freshness   []RelFreshness `json:"freshness"`
}

// ChainJoinRequest is the POST /v1/join/chain body — same shape as
// amsd's, minus the remote_* bundle fields (the daemon's cache IS the
// remote merge).
type ChainJoinRequest struct {
	F     string `json:"f"`
	AttrA string `json:"attr_a"`
	G     string `json:"g"`
	AttrB string `json:"attr_b"`
	H     string `json:"h"`
}

// ChainJoinBody is its response.
type ChainJoinBody struct {
	F           string         `json:"f"`
	AttrA       string         `json:"attr_a"`
	G           string         `json:"g"`
	AttrB       string         `json:"attr_b"`
	H           string         `json:"h"`
	Nodes       int            `json:"nodes"`
	RowsF       int64          `json:"rows_f"`
	RowsG       int64          `json:"rows_g"`
	RowsH       int64          `json:"rows_h"`
	Estimate    float64        `json:"estimate"`
	Sigma       float64        `json:"sigma"`
	Upper       float64        `json:"upper"`
	SJF         float64        `json:"sjf"`
	SJG         float64        `json:"sjg"`
	SJH         float64        `json:"sjh"`
	K           int            `json:"k"`
	StalenessMS int64          `json:"staleness_ms"`
	Freshness   []RelFreshness `json:"freshness"`
}

// PairsBody is the GET /v1/pairs response: the planning matrix over
// every cached relation pair.
type PairsBody struct {
	Pairs []JoinBody `json:"pairs"`
}

// NodeHealth is one node's entry in /healthz.
type NodeHealth struct {
	Node string `json:"node"`
	OK   bool   `json:"ok"`
	// Error is the node's last refresh failure; absent while healthy.
	Error string `json:"error,omitempty"`
}

// HealthzBody is the GET /healthz response.
type HealthzBody struct {
	Status string       `json:"status"` // "ok" or "degraded"
	Nodes  []NodeHealth `json:"nodes"`
	// Relations maps each configured relation to the age of its oldest
	// contributing copy; a relation no node serves reports -1.
	Relations map[string]int64 `json:"relations_staleness_ms"`
	// MaxStalenessMS echoes the serving bound (0 = serve forever).
	MaxStalenessMS int64 `json:"max_staleness_ms"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// statusForLookup maps cache-lookup failures: a relation no node serves
// is 404, one aged past the serving bound is 503 (retryable once a
// refresh lands), anything else 500.
func statusForLookup(err error) int {
	switch {
	case errors.Is(err, errRelUnavailable):
		return http.StatusNotFound
	case errors.Is(err, errTooStale):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// Handler returns the daemon's HTTP surface.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	mux.HandleFunc("GET /v1/join", d.handleJoin)
	mux.HandleFunc("POST /v1/join/chain", d.handleJoinChain)
	mux.HandleFunc("GET /v1/pairs", d.handlePairs)
	return mux
}

// joinFromCache builds one pair's JoinBody from the cache.
func (d *Daemon) joinFromCache(f, g string) (*JoinBody, error) {
	bf, frF, stF, err := d.lookup(f)
	if err != nil {
		return nil, err
	}
	bg, frG, stG, err := d.lookup(g)
	if err != nil {
		return nil, err
	}
	res, err := pairEstimate(f, g, bf, bg, maxNodes(frF, frG))
	if err != nil {
		return nil, err
	}
	return &JoinBody{
		F: f, G: g, Nodes: res.Nodes,
		RowsF: res.RowsF, RowsG: res.RowsG,
		Estimate: res.Estimate, Sigma: res.Sigma, Fact11: res.Fact11,
		SJF: res.SJF, SJG: res.SJG, K: res.K,
		Estimator:   res.Estimator,
		StalenessMS: max(stF, stG).Milliseconds(),
		Freshness:   append(frF, frG...),
	}, nil
}

func maxNodes(a, b []RelFreshness) int { return max(len(a), len(b)) }

func (d *Daemon) handleJoin(w http.ResponseWriter, r *http.Request) {
	f, g := r.URL.Query().Get("f"), r.URL.Query().Get("g")
	if f == "" || g == "" {
		writeErr(w, http.StatusBadRequest, errors.New("missing ?f or ?g parameter"))
		return
	}
	body, err := d.joinFromCache(f, g)
	if err != nil {
		writeErr(w, statusForLookup(err), err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (d *Daemon) handleJoinChain(w http.ResponseWriter, r *http.Request) {
	var req ChainJoinRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	if req.F == "" || req.AttrA == "" || req.G == "" || req.AttrB == "" || req.H == "" {
		writeErr(w, http.StatusBadRequest, errors.New("f, attr_a, g, attr_b, and h are all required"))
		return
	}
	bf, frF, stF, err := d.lookup(req.F)
	if err != nil {
		writeErr(w, statusForLookup(err), err)
		return
	}
	bg, frG, stG, err := d.lookup(req.G)
	if err != nil {
		writeErr(w, statusForLookup(err), err)
		return
	}
	bh, frH, stH, err := d.lookup(req.H)
	if err != nil {
		writeErr(w, statusForLookup(err), err)
		return
	}
	nodes := max(len(frF), max(len(frG), len(frH)))
	res, err := chainEstimate(req.F, req.AttrA, req.G, req.AttrB, req.H, bf, bg, bh, nodes)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, ChainJoinBody{
		F: res.F, AttrA: res.AttrA, G: res.G, AttrB: res.AttrB, H: res.H,
		Nodes: res.Nodes,
		RowsF: res.RowsF, RowsG: res.RowsG, RowsH: res.RowsH,
		Estimate: res.Estimate, Sigma: res.Sigma, Upper: res.Upper,
		SJF: res.SJF, SJG: res.SJG, SJH: res.SJH, K: res.K,
		StalenessMS: max(stF, max(stG, stH)).Milliseconds(),
		Freshness:   append(append(frF, frG...), frH...),
	})
}

// handlePairs walks every cached relation pair in configuration order.
// Pairs whose relations are unavailable are skipped (a planning matrix
// over what IS servable); a pair past the staleness bound fails the
// whole matrix, because a partial matrix silently missing the stalest
// relations is exactly the kind of answer the bound forbids.
func (d *Daemon) handlePairs(w http.ResponseWriter, _ *http.Request) {
	out := PairsBody{Pairs: []JoinBody{}}
	for i, f := range d.cfg.Relations {
		for _, g := range d.cfg.Relations[i+1:] {
			body, err := d.joinFromCache(f, g)
			if errors.Is(err, errRelUnavailable) {
				continue
			}
			if err != nil {
				writeErr(w, statusForLookup(err), err)
				return
			}
			out.Pairs = append(out.Pairs, *body)
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (d *Daemon) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	now := d.now()
	body := HealthzBody{
		Status:         "ok",
		Relations:      make(map[string]int64, len(d.cfg.Relations)),
		MaxStalenessMS: d.cfg.MaxStaleness.Milliseconds(),
	}
	d.mu.RLock()
	for _, node := range d.cfg.Nodes {
		nh := NodeHealth{Node: node, OK: d.nodeErr[node] == "", Error: d.nodeErr[node]}
		if !nh.OK {
			body.Status = "degraded"
		}
		body.Nodes = append(body.Nodes, nh)
	}
	for _, rel := range d.cfg.Relations {
		rs := d.rels[rel]
		if rs.merged == nil {
			body.Relations[rel] = -1
			body.Status = "degraded"
			continue
		}
		var staleness time.Duration
		for _, c := range rs.copies {
			if age := now.Sub(c.freshAt); age > staleness {
				staleness = age
			}
		}
		body.Relations[rel] = staleness.Milliseconds()
		if d.cfg.MaxStaleness > 0 && staleness > d.cfg.MaxStaleness {
			body.Status = "degraded"
		}
	}
	d.mu.RUnlock()
	writeJSON(w, http.StatusOK, body)
}
