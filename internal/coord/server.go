package coord

// The daemon's HTTP surface. Every estimate endpoint answers from the
// merged cache — zero node round trips on the query path — and carries
// its staleness evidence: staleness_ms is the age of the OLDEST node
// copy the answer depends on (the bound on how much ingest it can be
// missing), freshness itemizes each contributing node. /healthz goes
// degraded when any refresh loop is failing or any relation has aged
// past the serving bound.

import (
	"errors"
	"net/http"
	"time"

	"amstrack/internal/amsd"
)

// JoinBody is a coordinated join answer: the GET /v1/join response, each
// /v1/pairs entry, and Coordinate's result. It is amsd's join body over
// the merged bundles, plus the contributing node count, the merged row
// counts, the signature words, and the cache's staleness evidence (zero
// and null on a one-shot answer).
type JoinBody struct {
	amsd.JoinBody
	Nodes       int            `json:"nodes"`
	RowsF       int64          `json:"rows_f"`
	RowsG       int64          `json:"rows_g"`
	K           int            `json:"k"`
	StalenessMS int64          `json:"staleness_ms"`
	Freshness   []RelFreshness `json:"freshness"`
}

// ChainJoinRequest is the POST /v1/join/chain body: amsd's, whose
// remote_* bundle fields the daemon ignores (its cache IS the remote
// merge).
type ChainJoinRequest = amsd.ChainJoinRequest

// ChainJoinBody is its response and CoordinateChain's result: amsd's
// chain body over the merged bundles, plus the contributing node count,
// the merged row counts and the staleness evidence.
type ChainJoinBody struct {
	amsd.ChainJoinBody
	Nodes       int            `json:"nodes"`
	RowsF       int64          `json:"rows_f"`
	RowsG       int64          `json:"rows_g"`
	RowsH       int64          `json:"rows_h"`
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

// statusFor maps a cached answer's failure: a relation no node serves
// is 404, one aged past the serving bound is 503 (retryable once a
// refresh lands), and an estimate error answers as on a node
// (amsd.StatusFor: 409 for incompatible synopses or an untracked chain
// attribute).
func statusFor(err error) int {
	switch {
	case errors.Is(err, errRelUnavailable):
		return http.StatusNotFound
	case errors.Is(err, errTooStale):
		return http.StatusServiceUnavailable
	default:
		return amsd.StatusFor(err)
	}
}

// Handler returns the daemon's HTTP surface. Request bodies are capped
// at amsd.DefaultMaxBody, as on amsd; an overrun answers 413.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	mux.HandleFunc("GET /v1/join", d.handleJoin)
	mux.HandleFunc("POST /v1/join/chain", d.handleJoinChain)
	mux.HandleFunc("GET /v1/pairs", d.handlePairs)
	return amsd.CapBodies(mux, d.maxBody)
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
	body, err := pairEstimate(f, g, bf, bg, maxNodes(frF, frG))
	if err != nil {
		return nil, err
	}
	body.StalenessMS = max(stF, stG).Milliseconds()
	body.Freshness = append(frF, frG...)
	return body, nil
}

func maxNodes(a, b []RelFreshness) int { return max(len(a), len(b)) }

func (d *Daemon) handleJoin(w http.ResponseWriter, r *http.Request) {
	f, g := r.URL.Query().Get("f"), r.URL.Query().Get("g")
	if f == "" || g == "" {
		amsd.WriteErr(w, http.StatusBadRequest, errors.New("missing ?f or ?g parameter"))
		return
	}
	body, err := d.joinFromCache(f, g)
	if err != nil {
		amsd.WriteErr(w, statusFor(err), err)
		return
	}
	amsd.WriteJSON(w, http.StatusOK, body)
}

func (d *Daemon) handleJoinChain(w http.ResponseWriter, r *http.Request) {
	var req ChainJoinRequest
	if !amsd.ReadJSON(w, r, &req) {
		return
	}
	if req.F == "" || req.AttrA == "" || req.G == "" || req.AttrB == "" || req.H == "" {
		amsd.WriteErr(w, http.StatusBadRequest, errors.New("f, attr_a, g, attr_b, and h are all required"))
		return
	}
	bf, frF, stF, err := d.lookup(req.F)
	if err != nil {
		amsd.WriteErr(w, statusFor(err), err)
		return
	}
	bg, frG, stG, err := d.lookup(req.G)
	if err != nil {
		amsd.WriteErr(w, statusFor(err), err)
		return
	}
	bh, frH, stH, err := d.lookup(req.H)
	if err != nil {
		amsd.WriteErr(w, statusFor(err), err)
		return
	}
	nodes := max(len(frF), max(len(frG), len(frH)))
	body, err := chainEstimate(req.F, req.AttrA, req.G, req.AttrB, req.H, bf, bg, bh, nodes)
	if err != nil {
		amsd.WriteErr(w, statusFor(err), err)
		return
	}
	body.StalenessMS = max(stF, max(stG, stH)).Milliseconds()
	body.Freshness = append(append(frF, frG...), frH...)
	amsd.WriteJSON(w, http.StatusOK, body)
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
				amsd.WriteErr(w, statusFor(err), err)
				return
			}
			out.Pairs = append(out.Pairs, *body)
		}
	}
	amsd.WriteJSON(w, http.StatusOK, out)
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
	amsd.WriteJSON(w, http.StatusOK, body)
}
