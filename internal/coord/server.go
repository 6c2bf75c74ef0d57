package coord

// The daemon's HTTP surface. Every estimate endpoint answers from the
// merged cache — zero node round trips on the query path — and carries
// its staleness evidence: staleness_ms is the age of the OLDEST node
// copy the answer depends on (the bound on how much ingest it can be
// missing), freshness itemizes each contributing node. /healthz goes
// degraded when any refresh loop is failing or any relation has aged
// past the serving bound.

import (
	"net/http"
	"time"

	"amstrack/internal/amsd"
	"amstrack/internal/engine"
)

// JoinBody is a coordinated join answer: the GET /v1/join response, each
// /v1/pairs entry, and Coordinate's result. It is amsd's join body with
// its PairEvidence set: the contributing node count, the merged row
// counts, the signature words, and the cache's staleness evidence (zero
// and null on a one-shot answer).
type JoinBody amsd.JoinBody

// ChainJoinRequest is the POST /v1/join/chain body.
type ChainJoinRequest = amsd.ChainJoinRequest

// ChainJoinBody is its response and CoordinateChain's result: amsd's
// chain body with its ChainEvidence set.
type ChainJoinBody amsd.ChainJoinBody

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

// Handler returns the daemon's HTTP surface: amsd's estimate routes
// over the merged cache, and /healthz. Request bodies are capped at
// amsd.DefaultMaxBody, as on amsd; an overrun answers 413.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	amsd.MountEstimates(mux, cache{d})
	return amsd.CapBodies(mux, d.maxBody)
}

// cache is the daemon's amsd.Source: the configured relations, each
// answered from its merged bundle with the copies' staleness evidence.
type cache struct{ d *Daemon }

func (c cache) Names() ([]string, error) { return c.d.cfg.Relations, nil }

func (c cache) Cut(name string) (*engine.RelationBundle, *amsd.Evidence, error) {
	b, fresh, staleness, err := c.d.lookup(name)
	if err != nil {
		return nil, nil, err
	}
	return b, &amsd.Evidence{Nodes: len(fresh), StalenessMS: staleness.Milliseconds(), Freshness: fresh}, nil
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
