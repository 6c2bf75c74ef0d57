package router

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"amstrack/internal/amsd"
)

// Handler is the router's upstream HTTP surface. The ingest-facing
// routes are amsd's own handlers (amsd.MountRelations) served from the
// router's backend, so a loader or an operator script pointed at a
// single node gets the same answers from the router; the /v1/admin
// routes are the router's own.
//
//	GET    /healthz                  per-node health, ring membership
//	GET    /v1/relations             relation names (from a live node)
//	POST   /v1/relations             define across the whole fleet; 409 when
//	                                 a member holds the name with another schema
//	GET    /v1/relations/{name}      schema (the members', as a node stores it)
//	POST   /v1/ingest                partition + route + ack barrier
//	GET    /v1/ring?key=K            debug: the key's owning node
//	POST   /v1/admin/drain           {"node": base} — drain + rebalance off a node
//	POST   /v1/admin/forget          {"node": base} — clear quarantine, rebaseline
//
// Request bodies are capped at amsd.DefaultMaxBody, as on amsd; an
// overrun answers 413.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	amsd.MountRelations(mux, routerSink{r})
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	mux.HandleFunc("GET /v1/ring", r.handleRing)
	mux.HandleFunc("POST /v1/admin/drain", r.handleDrain)
	mux.HandleFunc("POST /v1/admin/forget", r.handleForget)
	return amsd.CapBodies(mux, r.maxBody)
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
	if !amsd.ReadJSON(w, req, &body) {
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
	if !amsd.ReadJSON(w, req, &body) {
		return
	}
	if err := r.Forget(body.Node); err != nil {
		amsd.WriteErr(w, http.StatusInternalServerError, err)
		return
	}
	amsd.WriteJSON(w, http.StatusOK, map[string]string{"forgotten": body.Node})
}
