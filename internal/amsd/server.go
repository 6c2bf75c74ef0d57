// Package amsd is the HTTP JSON surface of the synopsis engine — the
// long-lived service the paper's §5 deployment sketch implies: update
// streams flow in as batch ingests, the query optimizer asks for join and
// self-join estimates at planning time, and an operator (or a timer)
// triggers checkpoints. cmd/amsd wraps it in a daemon; tests and the
// examples drive the same handler through httptest / an in-process
// listener.
//
// Endpoints (all JSON):
//
//	GET    /healthz                  liveness + relation count
//	GET    /v1/relations             list defined relations
//	POST   /v1/relations             {"name": N} — define a relation; optional
//	                                 "attrs"/"chain_a"/"chain_b"/"chain_ab"
//	                                 declare a multi-attribute schema with §5
//	                                 chain synopses
//	GET    /v1/relations/{name}      the relation's schema (DefineRequest shapes)
//	DELETE /v1/relations/{name}      drop a relation
//	POST   /v1/ingest                {"relation": N, "inserts": [...], "deletes": [...]};
//	                                 multi-attribute relations use
//	                                 "insert_rows"/"delete_rows" (full tuples)
//	GET    /v1/selfjoin?relation=N   self-join (skew) estimate
//	GET    /v1/join?f=F&g=G          join estimate + Lemma 4.4 σ + Fact 1.1 bound
//	POST   /v1/join/chain            {"f", "attr_a", "g", "attr_b", "h"} — §5
//	                                 three-way chain estimate + variance bounds
//	GET    /v1/pairs                 the all-pairs planning matrix
//	POST   /v1/checkpoint            serialize state, reset oplogs (durable engines)
//
// Multi-node signature exchange (bundle bodies are the binary
// engine.RelationBundle blob, Content-Type application/octet-stream):
//
//	GET    /v1/signatures/{name}     export the relation's synopsis bundle;
//	                                 ?stat=1 (or a HEAD request) returns only
//	                                 the freshness stamp — {epoch, seq, rows}
//	                                 as JSON / X-Amstrack-* headers — so a
//	                                 coordinator can skip refetching an
//	                                 unchanged bundle
//	PUT    /v1/signatures/{name}     import a bundle as a NEW relation;
//	                                 ?mode=merge folds it into an existing one
//
// Cross-node answers come from the coordinator (internal/coord), which
// pulls these bundles, merges each relation's partitions and answers
// the four estimate routes above from its cache.
//
// Errors are {"error": "..."} with conventional status codes (400 bad
// request — a body field the request does not define included — 404
// unknown relation or route, 405 a method the route does not serve,
// with Allow, 409 conflict — including a bundle whose synopsis shape or
// hash-family seed does not match this engine's — and 413 when a body
// exceeds the server's limit).
//
// The package is also the one front of all three serving tiers: the
// relation and ingest routes (MountRelations, served from a Backend),
// the estimate routes (MountEstimates, served from a Source), the
// request decoder (ReadJSON), the body cap (CapBodies), the error
// mapping (StatusFor) and the serving shell (Serve) are what amsrouter
// and joinctl -serve answer and run with too.
package amsd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"amstrack/internal/engine"
	"amstrack/internal/wire"
)

// DefaultMaxBody caps request bodies (JSON and bundle uploads alike):
// large enough for multi-million-value ingest batches and k≈10⁶ bundles,
// small enough that a hostile upload cannot balloon the process.
const DefaultMaxBody = 64 << 20

// Server answers HTTP requests from one engine. The engine is safe for
// concurrent use, so the server adds no locking of its own. The ingest
// handler's response (tuple count) and every estimate endpoint drain the
// relation's staged ops first, so a client always reads its own
// completed writes; group-commit oplog errors surface as 500s on the
// first request after the failed flush.
type Server struct {
	eng *engine.Engine
	// h is the route mux behind the request-body cap.
	h http.Handler
	// wireStatus, when set, contributes the amswire listener's snapshot to
	// /healthz (see SetWireStatus).
	wireStatus func() WireStatus
}

// NewServer builds the handler for eng with the default body cap.
func NewServer(eng *engine.Engine) *Server { return NewServerMaxBody(eng, DefaultMaxBody) }

// NewServerMaxBody builds the handler with an explicit request-body cap
// in bytes (<=0 means DefaultMaxBody).
func NewServerMaxBody(eng *engine.Engine, maxBody int64) *Server {
	mux := http.NewServeMux()
	s := &Server{eng: eng, h: CapBodies(mux, maxBody)}
	backend := engineBackend{wire.EngineSink(eng), eng}
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	MountRelations(mux, backend)
	mux.HandleFunc("DELETE /v1/relations/{name...}", s.handleDrop)
	MountEstimates(mux, backend)
	mux.HandleFunc("POST /v1/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /v1/signatures/{name...}", s.handleExportSignature)
	mux.HandleFunc("PUT /v1/signatures/{name...}", s.handleImportSignature)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.h.ServeHTTP(w, r) }

// CapBodies serves mux with every request body capped at maxBody bytes
// (DefaultMaxBody when <= 0): the one body cap of amsd, the router and
// the coordinator. Reading past it fails with *http.MaxBytesError: 413.
// A request no pattern matches gets the mux's own status — 404, or 405
// with its Allow header — as a JSON error, like every other answer.
func CapBodies(mux *http.ServeMux, maxBody int64) http.Handler {
	if maxBody <= 0 {
		maxBody = DefaultMaxBody
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h, pattern := mux.Handler(r); pattern == "" {
			miss := unrouted{header: http.Header{}}
			h.ServeHTTP(&miss, r)
			if miss.status == http.StatusNotFound || miss.status == http.StatusMethodNotAllowed {
				if allow := miss.header.Get("Allow"); allow != "" {
					w.Header().Set("Allow", allow)
				}
				WriteErr(w, miss.status, fmt.Errorf("%s %s: %s", r.Method, r.URL.Path, strings.ToLower(http.StatusText(miss.status))))
				return
			}
		}
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		}
		mux.ServeHTTP(w, r)
	})
}

// unrouted records the status and headers of the mux's answer to a
// request no pattern matches (404, 405, or a redirect to the cleaned
// path, which the mux then serves itself), and drops its text body.
type unrouted struct {
	header http.Header
	status int
}

func (u *unrouted) Header() http.Header         { return u.header }
func (u *unrouted) Write(b []byte) (int, error) { return len(b), nil }
func (u *unrouted) WriteHeader(status int)      { u.status = status }

// bodyPool recycles request-body buffers up to maxPooledBody: a steady
// stream of similar requests reads with no buffer allocation, and a
// one-off huge body does not pin its buffer in the pool.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// ReadJSON decodes r's JSON body into v: the one request decoder of
// amsd, the router and the coordinator. The body must hold exactly one
// JSON value, with no field v does not define; trailing data is
// malformed. On failure it answers 413 (a body past the cap) or 400 and
// returns false.
func ReadJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := decodeJSON(r, v); err != nil {
		WriteErr(w, StatusFor(err), err)
		return false
	}
	return true
}

// decodeJSON is ReadJSON without the answer: its error maps through
// StatusFor.
func decodeJSON(r *http.Request, v any) error {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyPool.Put(buf)
		}
	}()
	buf.Reset()
	_, err := buf.ReadFrom(r.Body)
	if err == nil {
		// The decoder copies what it keeps, so the buffer can be recycled.
		dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
		dec.DisallowUnknownFields()
		err = dec.Decode(v)
		if err == nil && len(bytes.Trim(buf.Bytes()[dec.InputOffset():], " \t\r\n")) > 0 {
			err = errors.New("trailing data after the JSON value")
		}
	}
	if err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	return nil
}

// WriteJSON writes v as the JSON response body with the given status:
// the one JSON writer behind amsd, the router and the coordinator.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteErr writes the error body {"error": "..."} with the given status.
func WriteErr(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, struct {
		Error string `json:"error"`
	}{err.Error()})
}

// StatusFor maps a failed request onto its HTTP status, the same on
// every tier: a body that overran the cap is 413; an unknown relation
// 404; a duplicate define, a shape- or seed-incompatible synopsis and
// an untracked chain attribute 409; a failure of the nodes behind a
// backend (Upstream) 502; a cache past its serving bound (ErrTooStale)
// 503; the rest (malformed JSON or schemas, corrupt blobs) 400.
func StatusFor(err error) int {
	var tooBig *http.MaxBytesError
	var up upstreamError
	switch {
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, engine.ErrUnknownRelation):
		return http.StatusNotFound
	case errors.Is(err, engine.ErrAlreadyDefined), errors.Is(err, engine.ErrIncompatible),
		errors.Is(err, engine.ErrAttrNotTracked):
		return http.StatusConflict
	case errors.As(err, &up):
		return http.StatusBadGateway
	case errors.Is(err, ErrTooStale):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// Upstream marks err as a failure of the nodes behind a backend (the
// router's members). StatusFor answers it with 502 Bad Gateway, unless
// err also carries an answer a node gives itself (404, 409). The message
// is err's own.
func Upstream(err error) error { return upstreamError{err} }

type upstreamError struct{ error }

func (e upstreamError) Unwrap() error { return e.error }

// HealthzBody is the GET /healthz response. The durability block is what
// operators alert on: a growing checkpoint age or segment count means
// recovery is getting more expensive, and a sticky oplog or checkpoint
// error means acknowledged ops may not be durable (status "degraded").
type HealthzBody struct {
	Status    string `json:"status"`
	Relations int    `json:"relations"`
	Durable   bool   `json:"durable"`
	// IngestMode is the engine's write path — always "absorber" now;
	// kept so fleet dashboards reading the field keep working.
	IngestMode string `json:"ingest_mode"`
	// Checkpoints counts checkpoint attempts since startup.
	Checkpoints int64 `json:"checkpoints"`
	// LastCheckpointAgeSeconds is the age of the last successful
	// checkpoint; absent when none has completed yet.
	LastCheckpointAgeSeconds float64 `json:"last_checkpoint_age_seconds,omitempty"`
	// LastCheckpointError is the most recent checkpoint attempt's error,
	// "" when it succeeded.
	LastCheckpointError string `json:"last_checkpoint_error,omitempty"`
	// Segments is the live oplog segment count per relation — the replay
	// volume a crash right now would cost.
	Segments map[string]int `json:"segments,omitempty"`
	// OplogErrors carries each relation's sticky append error, keyed by
	// relation name; healthy relations are absent.
	OplogErrors map[string]string `json:"oplog_errors,omitempty"`
	// Wire is the amswire streaming-ingest listener's snapshot; absent
	// when the daemon serves HTTP only.
	Wire *WireStatus `json:"wire,omitempty"`
}

// WireStatus is the amswire listener's /healthz block: its bound
// address and its wire.Stats counters. Serve bridges a node's listener
// into it; an in-process host sets it with SetWireStatus.
type WireStatus struct {
	Addr       string `json:"addr"`
	Conns      int64  `json:"conns"`
	TotalConns int64  `json:"total_conns"`
	Batches    int64  `json:"batches"`
	Rows       int64  `json:"rows"`
	Flushes    int64  `json:"flushes"`
	Errors     int64  `json:"errors"`
}

// SetWireStatus registers the amswire snapshot source surfaced under
// /healthz "wire". Call before the server starts handling requests.
func (s *Server) SetWireStatus(fn func() WireStatus) { s.wireStatus = fn }

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	st := s.eng.DurabilityStats()
	body := HealthzBody{
		Status:              "ok",
		Relations:           len(s.eng.Names()),
		Durable:             st.Durable,
		IngestMode:          s.eng.Options().IngestMode.String(),
		Checkpoints:         st.Checkpoints,
		LastCheckpointError: st.LastCheckpointError,
	}
	if !st.LastCheckpointAt.IsZero() {
		body.LastCheckpointAgeSeconds = time.Since(st.LastCheckpointAt).Seconds()
	}
	if st.Durable {
		body.Segments = make(map[string]int, len(st.Relations))
		body.OplogErrors = map[string]string{}
		for name, rd := range st.Relations {
			body.Segments[name] = rd.Segments
			if rd.OplogError != "" {
				body.OplogErrors[name] = rd.OplogError
			}
		}
	}
	if st.LastCheckpointError != "" || len(body.OplogErrors) > 0 {
		body.Status = "degraded"
	}
	if s.wireStatus != nil {
		ws := s.wireStatus()
		body.Wire = &ws
	}
	WriteJSON(w, http.StatusOK, body)
}

// Backend is what the relation and ingest routes (MountRelations) serve
// from: one engine on a node, the routing core on amsrouter. It is also
// the wire.Sink amswire stages into, so both upstream surfaces of a
// daemon apply batches through one path. Schemas cross it normalized
// (engine.NormalizeSchema), as a node stores them.
type Backend interface {
	wire.Sink
	Names() ([]string, error)
	// Define fails with engine.ErrAlreadyDefined for a name already held
	// (on the router: held by a member with another schema).
	Define(name string, sc engine.Schema) error
	Schema(name string) (engine.Schema, error)
	// DrainLen is the ingest answer's barrier: once it returns nil, every
	// batch applied to the relation before the call is durable in the
	// backend's terms, and n is its row count (-1 if uncountable).
	DrainLen(name string) (n int64, err error)
}

// engineBackend serves the relation and estimate routes from one
// engine.
type engineBackend struct {
	wire.Sink
	eng *engine.Engine
}

func (b engineBackend) Names() ([]string, error) { return b.eng.Names(), nil }

func (b engineBackend) Define(name string, sc engine.Schema) error {
	_, err := b.eng.DefineSchema(name, sc)
	return err
}

func (b engineBackend) Schema(name string) (engine.Schema, error) {
	rel, err := b.eng.Get(name)
	if err != nil {
		return engine.Schema{}, err
	}
	return rel.Schema(), nil
}

// Cut drains the relation's staged ops and reads one cut, so a client
// always estimates over its own completed writes.
func (b engineBackend) Cut(name string) (*engine.RelationBundle, *Evidence, error) {
	rel, err := b.eng.Get(name)
	if err != nil {
		return nil, nil, err
	}
	return rel.Cut(), nil, nil
}

// DrainLen is one pipeline sweep: the count reads the request's ops, and
// an oplog failure they triggered is visible now.
func (b engineBackend) DrainLen(name string) (int64, error) {
	rel, err := b.eng.Get(name)
	if err != nil {
		return 0, err
	}
	return rel.DrainLen()
}

// MountRelations registers the routes every ingest-facing tier serves
// alike on mux, answered from b:
//
//	GET  /v1/relations          list defined relations
//	POST /v1/relations          define one (DefineRequest)
//	GET  /v1/relations/{name}   its schema (SchemaBody)
//	POST /v1/ingest             apply a batch (IngestRequest)
//
// amsd mounts them over its engine and amsrouter over its routing core,
// so a client gets the same answers from a node and from the fleet.
func MountRelations(mux *http.ServeMux, b Backend) {
	h := relationRoutes{b}
	mux.HandleFunc("GET /v1/relations", h.list)
	mux.HandleFunc("POST /v1/relations", h.define)
	// {name...} (multi-segment) so relation names containing '/' stay
	// reachable through the API.
	mux.HandleFunc("GET /v1/relations/{name...}", h.schema)
	mux.HandleFunc("POST /v1/ingest", h.ingest)
}

type relationRoutes struct{ b Backend }

// RelationsBody is the GET /v1/relations response.
type RelationsBody struct {
	Relations []string `json:"relations"`
}

func (h relationRoutes) list(w http.ResponseWriter, _ *http.Request) {
	names, err := h.b.Names()
	if err != nil {
		WriteErr(w, StatusFor(err), err)
		return
	}
	if names == nil {
		names = []string{}
	}
	WriteJSON(w, http.StatusOK, RelationsBody{Relations: names})
}

// DefineRequest is the POST /v1/relations body. The schema fields are
// optional: omitting them declares the legacy single-attribute relation.
type DefineRequest struct {
	Name string `json:"name"`
	// Attrs names the tuple attributes in ingest order; attribute 0 is
	// the primary one (pairwise signature + self-join sketch).
	Attrs []string `json:"attrs,omitempty"`
	// ChainA / ChainB declare A-side / B-side chain end signatures on the
	// named attributes; ChainAB declares chain middle signatures on
	// [a-attr, b-attr] pairs.
	ChainA  []string   `json:"chain_a,omitempty"`
	ChainB  []string   `json:"chain_b,omitempty"`
	ChainAB [][]string `json:"chain_ab,omitempty"`
	// SkimHitters opts the relation into skew-robust skimming: a
	// heavy-hitter table of that many slots in front of the sketches,
	// self-join and join estimates answered as exact(hitters) +
	// sketched tail (DESIGN.md §13). 0 = plain sketches.
	SkimHitters int `json:"skim_hitters,omitempty"`
}

// Normalize checks the request and returns the schema a node stores for
// it (engine.NormalizeSchema). An error is a malformed define, answered
// 400 before any relation is touched.
func (req DefineRequest) Normalize() (engine.Schema, error) {
	sc := engine.Schema{Attrs: req.Attrs, EndA: req.ChainA, EndB: req.ChainB, SkimHitters: req.SkimHitters}
	if req.Name == "" {
		return sc, errors.New("define without a relation name")
	}
	for _, p := range req.ChainAB {
		if len(p) != 2 {
			return sc, fmt.Errorf("chain_ab entry %v must name exactly two attributes", p)
		}
		sc.Middle = append(sc.Middle, [2]string{p[0], p[1]})
	}
	return engine.NormalizeSchema(sc)
}

// DefineBody is its response.
type DefineBody struct {
	Relation string   `json:"relation"`
	Attrs    []string `json:"attrs"`
}

func (h relationRoutes) define(w http.ResponseWriter, r *http.Request) {
	var req DefineRequest
	if !ReadJSON(w, r, &req) {
		return
	}
	sc, err := req.Normalize()
	if err == nil {
		err = h.b.Define(req.Name, sc)
	}
	if err != nil {
		WriteErr(w, StatusFor(err), err)
		return
	}
	WriteJSON(w, http.StatusCreated, DefineBody{Relation: req.Name, Attrs: sc.Attrs})
}

// SchemaBody is the GET /v1/relations/{name} response: the relation's
// normalized schema in the same field shapes DefineRequest accepts, so a
// router (or any other tier) can read a node's schema and replay the
// exact define elsewhere.
type SchemaBody struct {
	Relation    string     `json:"relation"`
	Attrs       []string   `json:"attrs"`
	ChainA      []string   `json:"chain_a,omitempty"`
	ChainB      []string   `json:"chain_b,omitempty"`
	ChainAB     [][]string `json:"chain_ab,omitempty"`
	SkimHitters int        `json:"skim_hitters,omitempty"`
}

// NewSchemaBody is the schema answer for relation name holding sc.
func NewSchemaBody(name string, sc engine.Schema) SchemaBody {
	body := SchemaBody{Relation: name, Attrs: sc.Attrs, ChainA: sc.EndA, ChainB: sc.EndB, SkimHitters: sc.SkimHitters}
	for _, p := range sc.Middle {
		body.ChainAB = append(body.ChainAB, []string{p[0], p[1]})
	}
	return body
}

// Request is the define that recreates the schema under its name.
func (b SchemaBody) Request() DefineRequest {
	return DefineRequest{Name: b.Relation, Attrs: b.Attrs, ChainA: b.ChainA, ChainB: b.ChainB,
		ChainAB: b.ChainAB, SkimHitters: b.SkimHitters}
}

func (h relationRoutes) schema(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sc, err := h.b.Schema(name)
	if err != nil {
		WriteErr(w, StatusFor(err), err)
		return
	}
	WriteJSON(w, http.StatusOK, NewSchemaBody(name, sc))
}

// DropBody is the DELETE /v1/relations/{name} response.
type DropBody struct {
	Dropped string `json:"dropped"`
}

func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.eng.Drop(name); err != nil {
		WriteErr(w, StatusFor(err), err)
		return
	}
	WriteJSON(w, http.StatusOK, DropBody{Dropped: name})
}

// IngestRequest is the POST /v1/ingest body: inserts applied before
// deletes, mirroring Relation.InsertBatch/DeleteBatch. Single-attribute
// relations use the flat value lists; multi-attribute relations MUST use
// the row forms, each row carrying the relation's full attribute set in
// schema order (an arity mismatch is a 400).
type IngestRequest struct {
	Relation   string     `json:"relation"`
	Inserts    []uint64   `json:"inserts,omitempty"`
	Deletes    []uint64   `json:"deletes,omitempty"`
	InsertRows [][]uint64 `json:"insert_rows,omitempty"`
	DeleteRows [][]uint64 `json:"delete_rows,omitempty"`
}

// IngestBody is its response. On the router Len is the fleet-wide row
// count, or -1 when a member's stat failed (the ingest still succeeded).
type IngestBody struct {
	Relation string `json:"relation"`
	Inserted int    `json:"inserted"`
	Deleted  int    `json:"deleted"`
	Len      int64  `json:"len"`
}

// appendRows appends rows to flat, row-major, after checking every row
// against the relation's arity, so a malformed batch is rejected whole
// before any op is staged.
func appendRows(flat []uint64, rows [][]uint64, rel wire.SinkRelation) ([]uint64, error) {
	for i, row := range rows {
		if len(row) != rel.Arity() {
			return nil, fmt.Errorf("row %d has %d values, relation %q has arity %d",
				i, len(row), rel.Name(), rel.Arity())
		}
		flat = append(flat, row...)
	}
	return flat, nil
}

// ingestPool recycles ingest requests: encoding/json grows a slice in
// place when its capacity suffices, so after warm-up a steady stream of
// similarly-sized batches decodes with no op-slice allocations. Handing
// pooled slices to Apply is safe: both backends copy what they stage.
var ingestPool = sync.Pool{New: func() any { return new(IngestRequest) }}

// putIngestRequest recycles req unless a huge batch grew its slices.
func putIngestRequest(req *IngestRequest) {
	if cap(req.Inserts)+cap(req.Deletes) > maxPooledBody/8 {
		return
	}
	*req = IngestRequest{Inserts: req.Inserts[:0], Deletes: req.Deletes[:0],
		InsertRows: req.InsertRows[:0], DeleteRows: req.DeleteRows[:0]}
	ingestPool.Put(req)
}

func (h relationRoutes) ingest(w http.ResponseWriter, r *http.Request) {
	req := ingestPool.Get().(*IngestRequest)
	defer putIngestRequest(req)
	if !ReadJSON(w, r, req) {
		return
	}
	rel, err := h.b.Relation(req.Relation)
	if err != nil {
		WriteErr(w, StatusFor(err), err)
		return
	}
	arity := rel.Arity()
	if arity != 1 && len(req.Inserts)+len(req.Deletes) > 0 {
		WriteErr(w, http.StatusBadRequest, fmt.Errorf(
			"relation %q has arity %d; use insert_rows/delete_rows with full tuples",
			req.Relation, arity))
		return
	}
	// Flat values go before rows (the flat forms exist only at arity 1).
	ins, err := appendRows(req.Inserts, req.InsertRows, rel)
	var del []uint64
	if err == nil {
		del, err = appendRows(req.Deletes, req.DeleteRows, rel)
	}
	if err != nil {
		WriteErr(w, http.StatusBadRequest, err)
		return
	}
	// Apply and the barrier fail only on the backend's side — a sticky
	// durability error, or a batch the router lost — never on the
	// request's validity, so they answer 500.
	err = rel.Apply(false, arity, ins)
	if err == nil {
		err = rel.Apply(true, arity, del)
	}
	var n int64
	if err == nil {
		n, err = h.b.DrainLen(req.Relation)
	}
	if err != nil {
		WriteErr(w, http.StatusInternalServerError, err)
		return
	}
	WriteJSON(w, http.StatusOK, IngestBody{
		Relation: req.Relation,
		Inserted: len(ins) / arity,
		Deleted:  len(del) / arity,
		Len:      n,
	})
}

// CheckpointBody is the POST /v1/checkpoint response.
type CheckpointBody struct {
	Bytes int `json:"bytes"`
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, _ *http.Request) {
	n, err := s.eng.Checkpoint()
	if err != nil {
		status := http.StatusInternalServerError
		if s.eng.Dir() == "" {
			status = http.StatusConflict // in-memory engine: nothing to checkpoint to
		}
		WriteErr(w, status, err)
		return
	}
	WriteJSON(w, http.StatusOK, CheckpointBody{Bytes: n})
}

// SignatureStatBody is the GET /v1/signatures/{name}?stat=1 response:
// the relation's freshness stamp without the bundle payload. Seq moves
// with every mutation and Epoch with every durability-log generation, so
// an unchanged (epoch, seq) pair guarantees the export bytes are
// unchanged — the contract coordinator caches poll before refetching.
type SignatureStatBody struct {
	Relation string `json:"relation"`
	Epoch    uint64 `json:"epoch"`
	Seq      uint64 `json:"seq"`
	Rows     int64  `json:"rows"`
}

// setStampHeaders mirrors the stamp into X-Amstrack-* headers so HEAD
// callers get it without a body.
func setStampHeaders(w http.ResponseWriter, st engine.RelationStat) {
	w.Header().Set("X-Amstrack-Epoch", fmt.Sprint(st.Epoch))
	w.Header().Set("X-Amstrack-Seq", fmt.Sprint(st.Seq))
	w.Header().Set("X-Amstrack-Rows", fmt.Sprint(st.Rows))
}

// handleExportSignature streams the relation's synopsis bundle — the
// linear synopses a coordinator or peer node can merge into its own with
// zero accuracy loss (engines must share Seed and shape options). With
// ?stat=1, or on a HEAD request (Go's mux routes HEAD through GET
// patterns), it answers with just the freshness stamp: no synopsis
// serialization, no payload — the cheap probe a background refresher
// issues every interval.
func (s *Server) handleExportSignature(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if r.Method == http.MethodHead || r.URL.Query().Get("stat") != "" {
		st, err := s.eng.StatRelation(name)
		if err != nil {
			WriteErr(w, StatusFor(err), err)
			return
		}
		setStampHeaders(w, st)
		if r.Method == http.MethodHead {
			w.WriteHeader(http.StatusOK)
			return
		}
		WriteJSON(w, http.StatusOK, SignatureStatBody{
			Relation: name, Epoch: st.Epoch, Seq: st.Seq, Rows: st.Rows,
		})
		return
	}
	data, err := s.eng.ExportRelation(name)
	if err != nil {
		WriteErr(w, StatusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(data)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// ImportBody is the PUT /v1/signatures/{name} response.
type ImportBody struct {
	Relation string `json:"relation"`
	Mode     string `json:"mode"` // "import" or "merge"
	Len      int64  `json:"len"`
}

// handleImportSignature accepts a bundle upload: by default it defines a
// new relation from the bundle (201; 409 if the name exists), with
// ?mode=merge it folds the bundle into an existing relation (200; 404 if
// absent). Shape/seed mismatches are 409, corrupt blobs 400.
func (s *Server) handleImportSignature(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	data, err := io.ReadAll(r.Body)
	if err != nil {
		WriteErr(w, StatusFor(err), fmt.Errorf("read bundle: %w", err))
		return
	}
	mode := r.URL.Query().Get("mode")
	status := http.StatusCreated
	switch mode {
	case "", "import":
		mode = "import"
		err = s.eng.ImportRelation(name, data)
	case "merge":
		status = http.StatusOK
		err = s.eng.MergeRelation(name, data)
	default:
		WriteErr(w, http.StatusBadRequest, fmt.Errorf("unknown mode %q (want import or merge)", mode))
		return
	}
	if err != nil {
		WriteErr(w, StatusFor(err), err)
		return
	}
	rel, err := s.eng.Get(name)
	if err != nil {
		WriteErr(w, http.StatusInternalServerError, err)
		return
	}
	WriteJSON(w, status, ImportBody{Relation: name, Mode: mode, Len: rel.Len()})
}
