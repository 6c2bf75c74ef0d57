package amsd

import (
	"errors"
	"net/http"

	"amstrack/internal/engine"
)

// Source is what the estimate routes (MountEstimates) answer from: one
// engine on a node, the merged bundle cache on the coordinator.
type Source interface {
	// Names lists the relations /v1/pairs walks, in the order it walks
	// them.
	Names() ([]string, error)
	// Cut returns one consistent cut of a relation and, from a cache,
	// the evidence of how fresh it is (nil on a node). A relation the
	// source cannot serve wraps engine.ErrUnknownRelation; a cut older
	// than the source's serving bound wraps ErrTooStale.
	Cut(name string) (*engine.RelationBundle, *Evidence, error)
}

// ErrTooStale is a cache's refusal to answer from a copy older than its
// serving bound. StatusFor answers it 503: retryable once a refresh
// lands.
var ErrTooStale = errors.New("cache staleness exceeds the serving bound")

// Evidence is what an answer from the coordinator's cache carries
// beyond a node's: how many node copies it merges, the age of the
// oldest (the bound on how much ingest the answer can be missing), and
// each copy's age and stamp. A one-shot coordinated answer has no ages:
// staleness_ms 0, freshness null.
type Evidence struct {
	Nodes       int             `json:"nodes"`
	StalenessMS int64           `json:"staleness_ms"`
	Freshness   []NodeFreshness `json:"freshness"`
}

// NodeFreshness is one node's cached copy of a relation: its age and
// the freshness stamp it carries.
type NodeFreshness struct {
	Node  string `json:"node"`
	AgeMS int64  `json:"age_ms"`
	Seq   uint64 `json:"seq"`
	Epoch uint64 `json:"epoch"`
}

// joinEvidence is the evidence of an answer over several relations: the
// most copies any of them merges, the oldest copy, and every copy, in
// argument order.
func joinEvidence(evs ...*Evidence) Evidence {
	var out Evidence
	n := 0
	for _, ev := range evs {
		n += len(ev.Freshness)
	}
	if n > 0 {
		out.Freshness = make([]NodeFreshness, 0, n)
	}
	for _, ev := range evs {
		out.Nodes = max(out.Nodes, ev.Nodes)
		out.StalenessMS = max(out.StalenessMS, ev.StalenessMS)
		out.Freshness = append(out.Freshness, ev.Freshness...)
	}
	return out
}

// SelfJoinBody is the GET /v1/selfjoin response. Estimator names which
// synopsis answered: "skimmed" (heavy-hitter table + sketched tail),
// "sketch" (dedicated Fast-AMS sketch), or "signature" (NoSketch
// engines). Evidence is set on the coordinator only.
type SelfJoinBody struct {
	Relation  string  `json:"relation"`
	Len       int64   `json:"len"`
	Estimate  float64 `json:"estimate"`
	Estimator string  `json:"estimator"`
	*Evidence
}

// JoinBody is the GET /v1/join response and each /v1/pairs entry: the
// engine's pair answer — the unbiased estimate plus the paper's bounds
// (Lemma 4.4 one-σ, Fact 1.1 upper bound), the self-join estimates they
// came from and the estimator that answered. PairEvidence is set on the
// coordinator only.
type JoinBody struct {
	F string `json:"f"`
	G string `json:"g"`
	engine.JoinEstimate
	*PairEvidence
}

// PairEvidence is a coordinated join answer's Evidence, plus the merged
// row counts and the signature words.
type PairEvidence struct {
	Evidence
	RowsF int64 `json:"rows_f"`
	RowsG int64 `json:"rows_g"`
	K     int   `json:"k"`
}

// JoinAnswer is the one pair answer: every /v1/join and /v1/pairs body,
// on a node and on the coordinator, and the coordinator's one-shot
// answer come from two cuts through here (engine.EstimateJoinBundles),
// so equal synopses answer bit-identically on every tier. ef and eg are
// the cuts' evidence; nil answers as a node.
func JoinAnswer(f, g string, bf, bg *engine.RelationBundle, ef, eg *Evidence) (*JoinBody, error) {
	je, err := engine.EstimateJoinBundles(bf, bg)
	if err != nil {
		return nil, err
	}
	body := &JoinBody{F: f, G: g, JoinEstimate: je}
	if ef != nil && eg != nil {
		body.PairEvidence = &PairEvidence{Evidence: joinEvidence(ef, eg),
			RowsF: bf.Rows, RowsG: bg.Rows, K: bf.Sig.MemoryWords()}
	}
	return body, nil
}

// ChainJoinRequest is the POST /v1/join/chain body: a §5 three-way chain
// join f ⋈attr_a g ⋈attr_b h.
type ChainJoinRequest struct {
	F     string `json:"f"`
	AttrA string `json:"attr_a"`
	G     string `json:"g"`
	AttrB string `json:"attr_b"`
	H     string `json:"h"`
}

// ChainJoinBody is its response: the chain named by the request and the
// engine's chain answer — the unbiased estimate plus the
// variance-envelope σ, the Cauchy–Schwarz upper bound, and the chain
// self-join estimates they came from. ChainEvidence is set on the
// coordinator only.
type ChainJoinBody struct {
	ChainJoinRequest
	engine.ChainJoinEstimate
	*ChainEvidence
}

// ChainEvidence is a coordinated chain answer's Evidence, plus the
// merged row counts.
type ChainEvidence struct {
	Evidence
	RowsF int64 `json:"rows_f"`
	RowsG int64 `json:"rows_g"`
	RowsH int64 `json:"rows_h"`
}

// ChainAnswer is the one chain answer, as JoinAnswer is the one pair
// answer (engine.EstimateChainBundles). ef, eg and eh are the cuts'
// evidence; nil answers as a node.
func ChainAnswer(req ChainJoinRequest, bf, bg, bh *engine.RelationBundle, ef, eg, eh *Evidence) (*ChainJoinBody, error) {
	ce, err := engine.EstimateChainBundles(bf, req.AttrA, bg, req.AttrB, bh)
	if err != nil {
		return nil, err
	}
	body := &ChainJoinBody{ChainJoinRequest: req, ChainJoinEstimate: ce}
	if ef != nil && eg != nil && eh != nil {
		body.ChainEvidence = &ChainEvidence{Evidence: joinEvidence(ef, eg, eh),
			RowsF: bf.Rows, RowsG: bg.Rows, RowsH: bh.Rows}
	}
	return body, nil
}

// PairsBody is the GET /v1/pairs response.
type PairsBody struct {
	Pairs []JoinBody `json:"pairs"`
}

// MountEstimates registers the query routes on mux, answered from src:
//
//	GET  /v1/selfjoin?relation=N   self-join (skew) estimate
//	GET  /v1/join?f=F&g=G          join estimate + Lemma 4.4 σ + Fact 1.1 bound
//	POST /v1/join/chain            §5 three-way chain estimate (ChainJoinRequest)
//	GET  /v1/pairs                 the all-pairs planning matrix
//
// amsd mounts them over its engine and the coordinator over its bundle
// cache, so a planner gets the same answers, statuses and errors from a
// node and from the cache.
func MountEstimates(mux *http.ServeMux, src Source) {
	h := estimateRoutes{src}
	mux.HandleFunc("GET /v1/selfjoin", estimate(h.selfJoin))
	mux.HandleFunc("GET /v1/join", estimate(h.join))
	mux.HandleFunc("POST /v1/join/chain", estimate(h.chain))
	mux.HandleFunc("GET /v1/pairs", estimate(h.pairs))
}

// estimate serves a route that answers a body or fails: the body is a
// 200, and the error answers with its StatusFor status (a malformed
// request's 400 included).
func estimate(route func(*http.Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := route(r)
		if err != nil {
			WriteErr(w, StatusFor(err), err)
			return
		}
		WriteJSON(w, http.StatusOK, body)
	}
}

type estimateRoutes struct{ src Source }

func (h estimateRoutes) selfJoin(r *http.Request) (any, error) {
	name := r.URL.Query().Get("relation")
	if name == "" {
		return nil, errors.New("missing ?relation parameter")
	}
	// One cut answers both the estimate and the length.
	cut, ev, err := h.src.Cut(name)
	if err != nil {
		return nil, err
	}
	est, estimator := cut.SelfJoinEstimateDetail()
	return SelfJoinBody{Relation: name, Len: cut.Rows, Estimate: est, Estimator: estimator, Evidence: ev}, nil
}

func (h estimateRoutes) join(r *http.Request) (any, error) {
	q := r.URL.Query()
	f, g := q.Get("f"), q.Get("g")
	if f == "" || g == "" {
		return nil, errors.New("missing ?f or ?g parameter")
	}
	bf, ef, err := h.src.Cut(f)
	if err != nil {
		return nil, err
	}
	bg, eg, err := h.src.Cut(g)
	if err != nil {
		return nil, err
	}
	return JoinAnswer(f, g, bf, bg, ef, eg)
}

func (h estimateRoutes) chain(r *http.Request) (any, error) {
	var req ChainJoinRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if req.F == "" || req.AttrA == "" || req.G == "" || req.AttrB == "" || req.H == "" {
		return nil, errors.New("f, attr_a, g, attr_b, and h are all required")
	}
	bf, ef, err := h.src.Cut(req.F)
	if err != nil {
		return nil, err
	}
	bg, eg, err := h.src.Cut(req.G)
	if err != nil {
		return nil, err
	}
	bh, eh, err := h.src.Cut(req.H)
	if err != nil {
		return nil, err
	}
	return ChainAnswer(req, bf, bg, bh, ef, eg, eh)
}

// pairs answers every pair of the source's relations in Names order,
// from one cut per relation. A relation the source cannot serve is left
// out of the matrix; any other failure — a cut past the serving bound
// above all — fails the whole matrix, since a matrix silently missing
// its stalest relations is the answer the bound forbids.
func (h estimateRoutes) pairs(*http.Request) (any, error) {
	names, err := h.src.Names()
	if err != nil {
		return nil, err
	}
	type cut struct {
		name string
		b    *engine.RelationBundle
		ev   *Evidence
	}
	cuts := make([]cut, 0, len(names))
	for _, name := range names {
		b, ev, err := h.src.Cut(name)
		if errors.Is(err, engine.ErrUnknownRelation) {
			continue
		}
		if err != nil {
			return nil, err
		}
		cuts = append(cuts, cut{name, b, ev})
	}
	out := PairsBody{Pairs: []JoinBody{}}
	for i, f := range cuts {
		for _, g := range cuts[i+1:] {
			body, err := JoinAnswer(f.name, g.name, f.b, g.b, f.ev, g.ev)
			if err != nil {
				return nil, err
			}
			out.Pairs = append(out.Pairs, *body)
		}
	}
	return out, nil
}
