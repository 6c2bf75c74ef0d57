package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	iofs "io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"amstrack/internal/oplog"
	"amstrack/internal/wire"
)

// Seam probes: wrappers around the interfaces the system already exposes
// (wire.Sink, oplog.FS, http.Handler, http.RoundTripper). They are
// installed only in traced runs; an untraced run builds exactly what the
// daemons build. Spans at these seams cannot be linked to the client
// request that caused them unless the seam carries a header, so engine,
// router and oplog spans stay unparented and count toward their layer.

// spanHeader links a server-side handler span to the client span that
// sent the request: "<trace hex>-<span hex>".
const spanHeader = "X-Amsload-Span"

// maxSpans bounds the in-memory span buffer (~56 MiB); later spans are
// counted as dropped.
const maxSpans = 1 << 20

type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and owns every probe of one run.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu      sync.Mutex
	spans   []span
	dropped int64

	engine, router sinkProbe
	fs             fsProbe
	amsd, coord    httpProbe
	fetch          fetchProbe
	send, flush    recorder // client-side wire call times, µs
	queue          recorder // router queue depth samples, batches
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.engine = sinkProbe{layer: "engine", t: t}
	t.router = sinkProbe{layer: "router", t: t}
	t.fs.t = t
	t.amsd = httpProbe{layer: "amsd", t: t}
	t.coord = httpProbe{layer: "coord", t: t}
	t.fetch.t = t
	return t
}

// reset forgets everything recorded so far: set-up and warm-up traffic
// is not part of the measured phase.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.dropped = nil, 0
	t.mu.Unlock()
	for _, p := range []*sinkProbe{&t.engine, &t.router} {
		p.applyNs.Store(0)
		p.rows.Store(0)
		p.drains.reset()
	}
	t.fs.writes.Store(0)
	t.fs.bytes.Store(0)
	t.fs.syncs.reset()
	for _, p := range []*httpProbe{&t.amsd, &t.coord} {
		p.mu.Lock()
		p.routes = nil
		p.mu.Unlock()
	}
	t.fetch.probes.Store(0)
	t.fetch.fetches.Store(0)
	t.fetch.bytes.Store(0)
	t.send.reset()
	t.flush.reset()
	t.queue.reset()
}

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) record(name string, trace, id, parent uint64, start, end time.Time) {
	s := span{Name: name, Trace: trace, ID: id, Parent: parent,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

func spanHeaderValue(trace, id uint64) string {
	return strconv.FormatUint(trace, 16) + "-" + strconv.FormatUint(id, 16)
}

func parseSpanHeader(v string) (trace, parent uint64) {
	a, b, ok := strings.Cut(v, "-")
	if !ok {
		return 0, 0
	}
	trace, err1 := strconv.ParseUint(a, 16, 64)
	parent, err2 := strconv.ParseUint(b, 16, 64)
	if err1 != nil || err2 != nil {
		return 0, 0
	}
	return trace, parent
}

// sinkProbe times SinkRelation.Apply and Drain at a wire.Sink seam: the
// engine behind a node's wire listener, or the router behind the front.
type sinkProbe struct {
	layer   string
	t       *tracer
	applyNs atomic.Int64
	rows    atomic.Int64
	drains  recorder // µs
}

func (p *sinkProbe) wrap(s wire.Sink) wire.Sink { return probedSink{s, p} }

type probedSink struct {
	wire.Sink
	p *sinkProbe
}

func (s probedSink) Relation(name string) (wire.SinkRelation, error) {
	r, err := s.Sink.Relation(name)
	if err != nil {
		return nil, err
	}
	return &probedRel{r, s.p}, nil
}

type probedRel struct {
	wire.SinkRelation
	p *sinkProbe
}

func (r *probedRel) Apply(del bool, arity int, vals []uint64) error {
	t0 := time.Now()
	err := r.SinkRelation.Apply(del, arity, vals)
	t1 := time.Now()
	r.p.applyNs.Add(t1.Sub(t0).Nanoseconds())
	r.p.rows.Add(int64(len(vals) / max(arity, 1)))
	id := r.p.t.newID()
	r.p.t.record(r.p.layer+".apply", id, id, 0, t0, t1)
	return err
}

func (r *probedRel) Drain() error {
	t0 := time.Now()
	err := r.SinkRelation.Drain()
	t1 := time.Now()
	r.p.drains.add(float64(t1.Sub(t0)) / float64(time.Microsecond))
	id := r.p.t.newID()
	r.p.t.record(r.p.layer+".drain", id, id, 0, t0, t1)
	return err
}

// fsProbe counts and times the durability layer's file I/O.
type fsProbe struct {
	t      *tracer
	writes atomic.Int64
	bytes  atomic.Int64
	syncs  recorder // fsync µs, files and directories
}

func (p *fsProbe) wrap(base oplog.FS) oplog.FS { return probedFS{base, p} }

type probedFS struct {
	oplog.FS
	p *fsProbe
}

func (f probedFS) OpenFile(name string, flag int, perm iofs.FileMode) (oplog.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &probedFile{file, f.p}, nil
}

func (f probedFS) SyncDir(name string) error {
	t0 := time.Now()
	err := f.FS.SyncDir(name)
	f.p.synced(t0)
	return err
}

type probedFile struct {
	oplog.File
	p *fsProbe
}

func (f *probedFile) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(b)
	f.p.writes.Add(1)
	f.p.bytes.Add(int64(n))
	id := f.p.t.newID()
	f.p.t.record("oplog.write", id, id, 0, t0, time.Now())
	return n, err
}

func (f *probedFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.p.synced(t0)
	return err
}

func (p *fsProbe) synced(t0 time.Time) {
	t1 := time.Now()
	p.syncs.add(float64(t1.Sub(t0)) / float64(time.Microsecond))
	id := p.t.newID()
	p.t.record("oplog.fsync", id, id, 0, t0, t1)
}

// httpProbe is handler middleware: per-route service time, and a span
// parented to the caller's span when the request carries spanHeader.
type httpProbe struct {
	layer string
	t     *tracer

	mu     sync.Mutex
	routes map[string]*recorder // µs per route
}

func (p *httpProbe) route(name string) *recorder {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.routes == nil {
		p.routes = map[string]*recorder{}
	}
	r := p.routes[name]
	if r == nil {
		r = &recorder{}
		p.routes[name] = r
	}
	return r
}

func (p *httpProbe) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := routeName(r)
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		p.route(name).add(float64(t1.Sub(t0)) / float64(time.Microsecond))
		trace, parent := parseSpanHeader(r.Header.Get(spanHeader))
		id := p.t.newID()
		if trace == 0 {
			trace = id
		}
		p.t.record(p.layer+"."+name, trace, id, parent, t0, t1)
	})
}

func routeName(r *http.Request) string {
	switch p := r.URL.Path; {
	case p == "/v1/join":
		return "join"
	case p == "/v1/join/chain":
		return "chain"
	case p == "/v1/selfjoin":
		return "selfjoin"
	case strings.HasPrefix(p, "/v1/signatures/") && isStat(r):
		return "stat"
	case strings.HasPrefix(p, "/v1/signatures/") && r.Method == http.MethodGet:
		return "export"
	}
	return "other"
}

func isStat(r *http.Request) bool {
	return r.Method == http.MethodHead || r.URL.Query().Get("stat") != ""
}

// fetchProbe is the coordinator fetcher's transport: it counts stat
// probes against bundle fetches and links each to the node's handler
// span.
type fetchProbe struct {
	t       *tracer
	base    http.RoundTripper
	probes  atomic.Int64
	fetches atomic.Int64
	bytes   atomic.Int64
}

func (p *fetchProbe) wrap(base http.RoundTripper) http.RoundTripper {
	p.base = base
	return p
}

func (p *fetchProbe) RoundTrip(req *http.Request) (*http.Response, error) {
	name := "coord.fetch"
	if isStat(req) {
		name = "coord.probe"
		p.probes.Add(1)
	} else {
		p.fetches.Add(1)
	}
	id := p.t.newID()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, spanHeaderValue(id, id))
	t0 := time.Now()
	resp, err := p.base.RoundTrip(req)
	p.t.record(name, id, id, 0, t0, time.Now())
	if err == nil && name == "coord.fetch" && resp.ContentLength > 0 {
		p.bytes.Add(resp.ContentLength)
	}
	return resp, err
}

// layerRow is one line of the traced run's per-layer time table.
type layerRow struct {
	Layer  string  `json:"layer"`
	Spans  int     `json:"spans"`
	BusyMS float64 `json:"busy_ms"`
	SelfMS float64 `json:"self_ms"`
}

// layers sums busy time (span durations) and self time (durations minus
// the part their child spans cover) per layer, the span-name prefix.
func (t *tracer) layers() []layerRow {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*layerRow{}
	for _, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		row := rows[layer]
		if row == nil {
			row = &layerRow{Layer: layer}
			rows[layer] = row
		}
		d := float64(s.End - s.Start)
		row.Spans++
		row.BusyMS += d / 1e6
		row.SelfMS += (d - covered(s, children[s.ID])) / 1e6
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, end int64
	end = parent.Start
	for _, k := range kids {
		s, e := max(k.Start, end), min(k.End, parent.End)
		if e > s {
			total += e - s
			end = e
		}
	}
	return float64(total)
}

// writeSpans writes the run's spans as JSON lines, and the per-layer
// table beside them.
func (t *tracer) writeSpans(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	dropped := t.dropped
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	summary := struct {
		Dropped int64      `json:"dropped_spans"`
		Layers  []layerRow `json:"layers"`
	}{dropped, t.layers()}
	data, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".layers.json"), append(data, '\n'), 0o644)
}

func (t *tracer) printLayers(w io.Writer) {
	fmt.Fprintf(w, "%-8s %9s %12s %12s\n", "layer", "spans", "busy_ms", "self_ms")
	for _, r := range t.layers() {
		fmt.Fprintf(w, "%-8s %9d %12.1f %12.1f\n", r.Layer, r.Spans, r.BusyMS, r.SelfMS)
	}
}
