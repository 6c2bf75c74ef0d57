package router

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"amstrack/internal/amsd"
	"amstrack/internal/coord"
)

// Handler is the router's upstream HTTP surface. The ingest-facing
// routes mirror amsd's (same paths, same JSON bodies), so a loader or
// an operator script pointed at a single node works against the router
// unchanged; the /v1/admin routes are the router's own.
//
//	GET    /healthz                  per-node health, ring membership
//	GET    /v1/relations             relation names (proxied from a live node)
//	POST   /v1/relations             define across the whole fleet
//	GET    /v1/relations/{name}      schema (router's adopted copy)
//	POST   /v1/ingest                partition + route + ack barrier
//	GET    /v1/ring?key=K            debug: the key's owning node
//	POST   /v1/admin/drain           {"node": base} — drain + rebalance off a node
//	POST   /v1/admin/forget          {"node": base} — clear quarantine, rebaseline
//
// Request bodies are capped at amsd.DefaultMaxBody, as on amsd; an
// overrun answers 413.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	mux.HandleFunc("GET /v1/relations", r.handleList)
	mux.HandleFunc("POST /v1/relations", r.handleDefine)
	mux.HandleFunc("GET /v1/relations/{name...}", r.handleSchema)
	mux.HandleFunc("POST /v1/ingest", r.handleIngest)
	mux.HandleFunc("GET /v1/ring", r.handleRing)
	mux.HandleFunc("POST /v1/admin/drain", r.handleDrain)
	mux.HandleFunc("POST /v1/admin/forget", r.handleForget)
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Body != nil {
			req.Body = http.MaxBytesReader(w, req.Body, r.maxBody)
		}
		mux.ServeHTTP(w, req)
	})
}

// decodeBody decodes a JSON request body into v. On failure it writes
// the error response — 413 for a body over the cap, 400 otherwise — and
// returns false.
func decodeBody(w http.ResponseWriter, req *http.Request, v any) bool {
	err := json.NewDecoder(req.Body).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	amsd.WriteErr(w, status, fmt.Errorf("decode request: %w", err))
	return false
}

// HealthzBody is the router's /healthz response.
type HealthzBody struct {
	Status string       `json:"status"` // "ok" or "degraded" (any node not healthy)
	Mode   string       `json:"mode"`   // always "routed"
	Nodes  []NodeHealth `json:"nodes"`
}

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	body := HealthzBody{Status: "ok", Mode: "routed", Nodes: r.Health()}
	for _, n := range body.Nodes {
		if n.State != StateHealthy.String() {
			body.Status = "degraded"
			break
		}
	}
	amsd.WriteJSON(w, http.StatusOK, body)
}

func (r *Router) handleList(w http.ResponseWriter, _ *http.Request) {
	var lastErr error = errors.New("no live nodes")
	for _, m := range r.ring.Members() {
		r.mu.Lock()
		alive := r.aliveLocked(m)
		r.mu.Unlock()
		if !alive {
			continue
		}
		names, err := r.opts.Fetcher.ListRelations(m)
		if err == nil {
			if names == nil {
				names = []string{}
			}
			amsd.WriteJSON(w, http.StatusOK, amsd.RelationsBody{Relations: names})
			return
		}
		lastErr = err
	}
	amsd.WriteErr(w, http.StatusBadGateway, lastErr)
}

func (r *Router) handleDefine(w http.ResponseWriter, req *http.Request) {
	var body amsd.DefineRequest
	if !decodeBody(w, req, &body) {
		return
	}
	sc := coord.Schema{Relation: body.Name, Attrs: body.Attrs,
		ChainA: body.ChainA, ChainB: body.ChainB, ChainAB: body.ChainAB,
		SkimHitters: body.SkimHitters}
	if err := r.Define(sc); err != nil {
		amsd.WriteErr(w, http.StatusBadGateway, err)
		return
	}
	attrs := body.Attrs
	if len(attrs) == 0 {
		attrs = []string{"value"}
	}
	amsd.WriteJSON(w, http.StatusCreated, amsd.DefineBody{Relation: body.Name, Attrs: attrs})
}

func (r *Router) handleSchema(w http.ResponseWriter, req *http.Request) {
	rs, err := r.Relation(req.PathValue("name"))
	if err != nil {
		status := http.StatusBadGateway
		if errors.Is(err, coord.ErrNotFound) {
			status = http.StatusNotFound
		}
		amsd.WriteErr(w, status, err)
		return
	}
	r.mu.Lock()
	sc := rs.schema
	r.mu.Unlock()
	amsd.WriteJSON(w, http.StatusOK, sc)
}

// handleIngest answers with amsd's ingest body. Its Len is the
// fleet-total row count (sum of per-node lens — exact under linearity),
// or -1 when a node's stat was unreachable; the ingest itself is still
// acknowledged.
func (r *Router) handleIngest(w http.ResponseWriter, req *http.Request) {
	var body amsd.IngestRequest
	if !decodeBody(w, req, &body) {
		return
	}
	rs, err := r.Relation(body.Relation)
	if err != nil {
		status := http.StatusBadGateway
		if errors.Is(err, coord.ErrNotFound) {
			status = http.StatusNotFound
		}
		amsd.WriteErr(w, status, err)
		return
	}
	if rs.arity != 1 && len(body.Inserts)+len(body.Deletes) > 0 {
		amsd.WriteErr(w, http.StatusBadRequest,
			fmt.Errorf("relation %q has arity %d; use insert_rows/delete_rows", rs.name, rs.arity))
		return
	}
	// As on amsd, rows must carry the relation's full width (one value on
	// an arity-1 relation), every row is checked before any op is sent,
	// and flat values go before rows.
	flat := func(vals []uint64, rows [][]uint64) ([]uint64, error) {
		for i, row := range rows {
			if len(row) != rs.arity {
				return nil, fmt.Errorf("row %d has %d values, relation %q has arity %d",
					i, len(row), rs.name, rs.arity)
			}
			vals = append(vals, row...)
		}
		return vals, nil
	}
	ins, err := flat(body.Inserts, body.InsertRows)
	if err != nil {
		amsd.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	del, err := flat(body.Deletes, body.DeleteRows)
	if err != nil {
		amsd.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	// Inserts before deletes, mirroring amsd's handler.
	if err := r.route(rs, false, ins); err != nil {
		amsd.WriteErr(w, http.StatusInternalServerError, err)
		return
	}
	if err := r.route(rs, true, del); err != nil {
		amsd.WriteErr(w, http.StatusInternalServerError, err)
		return
	}
	if err := r.Flush(rs.name); err != nil {
		amsd.WriteErr(w, http.StatusInternalServerError, err)
		return
	}
	amsd.WriteJSON(w, http.StatusOK, amsd.IngestBody{
		Relation: rs.name,
		Inserted: len(ins) / rs.arity,
		Deleted:  len(del) / rs.arity,
		Len:      r.fleetLen(rs),
	})
}

// fleetLen sums the relation's row count across members — exact under
// linearity when every stat answers; -1 when one does not.
func (r *Router) fleetLen(rs *relState) int64 {
	r.mu.Lock()
	members := make([]string, 0, len(rs.accts))
	for m := range rs.accts {
		members = append(members, m)
	}
	r.mu.Unlock()
	var total int64
	for _, m := range members {
		st, err := r.once.FetchStat(m, rs.name)
		if err != nil {
			return -1
		}
		total += st.Rows
	}
	return total
}

func (r *Router) handleRing(w http.ResponseWriter, req *http.Request) {
	key, err := strconv.ParseUint(req.URL.Query().Get("key"), 10, 64)
	if err != nil {
		amsd.WriteErr(w, http.StatusBadRequest, fmt.Errorf("bad ?key: %w", err))
		return
	}
	r.mu.Lock()
	owner, ok := r.ring.Owner(key, r.aliveLocked)
	r.mu.Unlock()
	if !ok {
		amsd.WriteErr(w, http.StatusServiceUnavailable, errors.New("no live nodes"))
		return
	}
	amsd.WriteJSON(w, http.StatusOK, map[string]any{"key": key, "owner": owner})
}

func (r *Router) handleDrain(w http.ResponseWriter, req *http.Request) {
	var body struct {
		Node string `json:"node"`
	}
	if !decodeBody(w, req, &body) {
		return
	}
	rep, err := r.DrainNode(body.Node)
	if err != nil {
		amsd.WriteErr(w, http.StatusInternalServerError, err)
		return
	}
	amsd.WriteJSON(w, http.StatusOK, rep)
}

func (r *Router) handleForget(w http.ResponseWriter, req *http.Request) {
	var body struct {
		Node string `json:"node"`
	}
	if !decodeBody(w, req, &body) {
		return
	}
	if err := r.Forget(body.Node); err != nil {
		amsd.WriteErr(w, http.StatusInternalServerError, err)
		return
	}
	amsd.WriteJSON(w, http.StatusOK, map[string]string{"forgotten": body.Node})
}
