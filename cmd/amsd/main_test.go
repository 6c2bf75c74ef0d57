package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"amstrack/internal/amsd"
	"amstrack/internal/engine"
	"amstrack/internal/exact"
	"amstrack/internal/oplog"
	"amstrack/internal/wire"
	"amstrack/internal/xrand"
)

func postJSON(t *testing.T, client *http.Client, url string, body any, out any, wantStatus int) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST %s: status %d (want %d): %v", url, resp.StatusCode, wantStatus, e)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

func getJSON(t *testing.T, client *http.Client, url string, out any, wantStatus int) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServerRoundTrip is the acceptance path: ingest → estimate →
// checkpoint over HTTP against a durable engine, then a fresh engine
// recovered from the same directory answers identically.
func TestServerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := engine.Options{SignatureWords: 256, Seed: 11, SketchS1: 512, SketchS2: 6, Dir: dir}
	eng, err := engine.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(amsd.NewServer(eng))
	defer ts.Close()
	client := ts.Client()

	var hb amsd.HealthzBody
	getJSON(t, client, ts.URL+"/healthz", &hb, http.StatusOK)
	if hb.Status != "ok" || !hb.Durable || hb.Relations != 0 {
		t.Fatalf("healthz = %+v", hb)
	}

	for _, name := range []string{"orders", "lineitems"} {
		var db amsd.DefineBody
		postJSON(t, client, ts.URL+"/v1/relations", amsd.DefineRequest{Name: name}, &db, http.StatusCreated)
		if db.Relation != name {
			t.Fatalf("define returned %q", db.Relation)
		}
	}
	// Duplicate define → 409; empty name → 400.
	postJSON(t, client, ts.URL+"/v1/relations", amsd.DefineRequest{Name: "orders"}, nil, http.StatusConflict)
	postJSON(t, client, ts.URL+"/v1/relations", amsd.DefineRequest{}, nil, http.StatusBadRequest)

	// Ingest correlated data so the join is non-trivial, tracking exact
	// histograms alongside.
	r := xrand.New(3)
	exO, exL := exact.NewHistogram(), exact.NewHistogram()
	ovs := make([]uint64, 8000)
	lvs := make([]uint64, 8000)
	for i := range ovs {
		ovs[i] = r.Uint64n(120)
		lvs[i] = r.Uint64n(120)
		exO.Insert(ovs[i])
		exL.Insert(lvs[i])
	}
	var ib amsd.IngestBody
	postJSON(t, client, ts.URL+"/v1/ingest", amsd.IngestRequest{Relation: "orders", Inserts: ovs}, &ib, http.StatusOK)
	if ib.Len != 8000 || ib.Inserted != 8000 {
		t.Fatalf("ingest = %+v", ib)
	}
	postJSON(t, client, ts.URL+"/v1/ingest", amsd.IngestRequest{Relation: "lineitems", Inserts: lvs}, &ib, http.StatusOK)
	// Deletes through the same endpoint.
	postJSON(t, client, ts.URL+"/v1/ingest", amsd.IngestRequest{Relation: "orders", Deletes: ovs[:1000]}, &ib, http.StatusOK)
	for _, v := range ovs[:1000] {
		if err := exO.Delete(v); err != nil {
			t.Fatal(err)
		}
	}
	if ib.Len != 7000 {
		t.Fatalf("len after deletes = %d", ib.Len)
	}
	postJSON(t, client, ts.URL+"/v1/ingest", amsd.IngestRequest{Relation: "nope", Inserts: []uint64{1}}, nil, http.StatusNotFound)

	var sj amsd.SelfJoinBody
	getJSON(t, client, ts.URL+"/v1/selfjoin?relation=orders", &sj, http.StatusOK)
	truthSJ := float64(exO.SelfJoin())
	if sj.Len != 7000 || sj.Estimate <= 0 {
		t.Fatalf("selfjoin = %+v", sj)
	}
	if relErr := (sj.Estimate - truthSJ) / truthSJ; relErr > 1 || relErr < -1 {
		t.Fatalf("selfjoin estimate %.3g implausible vs truth %.3g", sj.Estimate, truthSJ)
	}
	getJSON(t, client, ts.URL+"/v1/selfjoin?relation=nope", nil, http.StatusNotFound)
	getJSON(t, client, ts.URL+"/v1/selfjoin", nil, http.StatusBadRequest)

	var jb amsd.JoinBody
	getJSON(t, client, ts.URL+"/v1/join?f=orders&g=lineitems", &jb, http.StatusOK)
	truthJ := float64(exO.JoinSize(exL))
	if d := jb.Estimate - truthJ; d > 4*jb.Sigma || d < -4*jb.Sigma {
		t.Fatalf("join estimate %.3g off truth %.3g beyond 4σ (σ=%.3g)", jb.Estimate, truthJ, jb.Sigma)
	}
	if jb.Fact11 <= 0 || jb.SJF <= 0 || jb.SJG <= 0 {
		t.Fatalf("join bounds missing: %+v", jb)
	}
	getJSON(t, client, ts.URL+"/v1/join?f=orders", nil, http.StatusBadRequest)
	getJSON(t, client, ts.URL+"/v1/join?f=orders&g=nope", nil, http.StatusNotFound)

	var pb amsd.PairsBody
	getJSON(t, client, ts.URL+"/v1/pairs", &pb, http.StatusOK)
	if len(pb.Pairs) != 1 || pb.Pairs[0].Estimate != jb.Estimate {
		t.Fatalf("pairs = %+v", pb)
	}

	var cb amsd.CheckpointBody
	postJSON(t, client, ts.URL+"/v1/checkpoint", nil, &cb, http.StatusOK)
	if cb.Bytes <= 0 {
		t.Fatalf("checkpoint bytes = %d", cb.Bytes)
	}

	var rb amsd.RelationsBody
	getJSON(t, client, ts.URL+"/v1/relations", &rb, http.StatusOK)
	if len(rb.Relations) != 2 {
		t.Fatalf("relations = %v", rb.Relations)
	}

	// Post-checkpoint ingest rides the oplog; recovery must see it.
	postJSON(t, client, ts.URL+"/v1/ingest", amsd.IngestRequest{Relation: "orders", Inserts: []uint64{1, 2, 3}}, &ib, http.StatusOK)

	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := engine.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	je, err := back.EstimateJoin("orders", "lineitems")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := back.Get("orders")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 7003 {
		t.Fatalf("recovered Len = %d, want 7003", rel.Len())
	}
	if je.Estimate == 0 || je.Sigma == 0 {
		t.Fatalf("recovered estimate = %+v", je)
	}

	// Drop endpoint against a fresh server over the recovered engine.
	ts2 := httptest.NewServer(amsd.NewServer(back))
	defer ts2.Close()
	req, _ := http.NewRequest(http.MethodDelete, ts2.URL+"/v1/relations/lineitems", nil)
	resp, err := ts2.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drop status = %d", resp.StatusCode)
	}
	if names := back.Names(); len(names) != 1 || names[0] != "orders" {
		t.Fatalf("relations after drop = %v", names)
	}
}

// TestDropSlashName: relation names containing '/' are legal in the
// engine; the DELETE route's multi-segment wildcard must still reach
// them.
func TestDropSlashName(t *testing.T) {
	eng, err := engine.New(engine.Options{SignatureWords: 32, SketchS1: 8, SketchS2: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(amsd.NewServer(eng))
	defer ts.Close()
	postJSON(t, ts.Client(), ts.URL+"/v1/relations", amsd.DefineRequest{Name: "sales/2026/q1"}, nil, http.StatusCreated)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/relations/sales/2026/q1", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drop status = %d", resp.StatusCode)
	}
	if names := eng.Names(); len(names) != 0 {
		t.Fatalf("relations = %v", names)
	}
}

// TestCheckpointInMemoryConflict: an in-memory engine has nowhere to
// checkpoint; the endpoint reports 409.
func TestCheckpointInMemoryConflict(t *testing.T) {
	eng, err := engine.New(engine.Options{SignatureWords: 32, SketchS1: 8, SketchS2: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(amsd.NewServer(eng))
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/v1/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d, want 409", resp.StatusCode)
	}
}

// TestRunFlagValidation exercises the daemon entry's option plumbing
// without binding a port.
func TestRunFlagValidation(t *testing.T) {
	const wireAddr = "127.0.0.1:0"
	err := run(context.Background(), engine.Options{SignatureWords: 0}, "127.0.0.1:0", wireAddr, 0, nil)
	if err == nil {
		t.Fatal("k=0 accepted")
	}
	err = run(context.Background(), engine.Options{SignatureWords: 32, CheckpointInterval: time.Nanosecond}, "", wireAddr, 0, nil)
	if err == nil {
		t.Fatal("-checkpoint-every without -dir accepted")
	}
	err = run(context.Background(), engine.Options{SignatureWords: 32, CheckpointSegments: 2}, "", wireAddr, 0, nil)
	if err == nil {
		t.Fatal("-checkpoint-segments without -dir accepted")
	}
	err = run(context.Background(), engine.Options{SignatureWords: 32}, "127.0.0.1:0", "", 0, nil)
	if err == nil || !strings.Contains(err.Error(), "-wire-addr") {
		t.Fatalf("empty -wire-addr: err = %v, want a rejection naming the flag", err)
	}
}

// startDaemon runs the daemon on ephemeral HTTP and wire ports and
// returns its base URL, a cancel that triggers graceful shutdown, and
// the channel that yields run's exit status.
func startDaemon(t *testing.T, opts engine.Options) (string, context.CancelFunc, <-chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, opts, "127.0.0.1:0", "127.0.0.1:0", 0, func(addr string) { ready <- addr })
	}()
	select {
	case addr := <-ready:
		return "http://" + addr, cancel, done
	case err := <-done:
		cancel()
		t.Fatalf("daemon died before ready: %v", err)
		return "", nil, nil
	}
}

// TestGracefulShutdown: cancelling the run context must stop accepting,
// cut a final checkpoint, and exit cleanly — and a restart over the same
// directory recovers every acknowledged op.
func TestGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	opts := engine.Options{SignatureWords: 64, Seed: 5, SketchS1: 32, SketchS2: 2, Dir: dir}
	base, cancel, done := startDaemon(t, opts)
	defer cancel()

	client := http.DefaultClient
	postJSON(t, client, base+"/v1/relations", amsd.DefineRequest{Name: "f"}, nil, http.StatusCreated)
	vals := make([]uint64, 1000)
	r := xrand.New(77)
	for i := range vals {
		vals[i] = r.Uint64n(200)
	}
	var ib amsd.IngestBody
	postJSON(t, client, base+"/v1/ingest", amsd.IngestRequest{Relation: "f", Inserts: vals}, &ib, http.StatusOK)
	if ib.Len != 1000 {
		t.Fatalf("ingest len = %d", ib.Len)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("graceful shutdown exit = %v, want nil", err)
	}
	if _, err := client.Get(base + "/healthz"); err == nil {
		t.Fatal("daemon still accepting after shutdown")
	}

	back, err := engine.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	rel, err := back.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1000 {
		t.Fatalf("recovered Len = %d, want 1000", rel.Len())
	}
}

// TestShutdownCheckpointFailure: when the final checkpoint cannot be
// made durable (fsync failing at shutdown), run must return an error so
// the process exits non-zero — a clean exit would tell the operator the
// tail of the stream is safe when it is not.
func TestShutdownCheckpointFailure(t *testing.T) {
	ffs := oplog.NewFaultFS(nil)
	opts := engine.Options{SignatureWords: 64, Seed: 5, SketchS1: 32, SketchS2: 2, Dir: t.TempDir(), FS: ffs}
	base, cancel, done := startDaemon(t, opts)
	defer cancel()

	client := http.DefaultClient
	postJSON(t, client, base+"/v1/relations", amsd.DefineRequest{Name: "f"}, nil, http.StatusCreated)
	postJSON(t, client, base+"/v1/ingest", amsd.IngestRequest{Relation: "f", Inserts: []uint64{1, 2, 3}}, nil, http.StatusOK)

	ffs.FailSync(errors.New("fsync: device on fire"))
	cancel()
	if err := <-done; err == nil {
		t.Fatal("failed final checkpoint reported a clean exit")
	}
}

// TestWireListener: the daemon serves amswire beside HTTP against the
// same engine — batches streamed over the wire port are
// visible to HTTP estimates after a FLUSH, /healthz grows the wire
// block, and graceful shutdown says GOODBYE to the stream, cuts the
// final checkpoint, and recovers every acked batch.
func TestWireListener(t *testing.T) {
	dir := t.TempDir()
	opts := engine.Options{SignatureWords: 64, Seed: 5, SketchS1: 32, SketchS2: 2, Dir: dir}
	base, cancel, done := startDaemon(t, opts)
	defer cancel()
	client := http.DefaultClient

	// The bound wire address is published in /healthz.
	var hb amsd.HealthzBody
	getJSON(t, client, base+"/healthz", &hb, http.StatusOK)
	if hb.Wire == nil || hb.Wire.Addr == "" {
		t.Fatalf("healthz wire block missing: %+v", hb)
	}

	postJSON(t, client, base+"/v1/relations", amsd.DefineRequest{Name: "f"}, nil, http.StatusCreated)

	wc, err := wire.Dial(hb.Wire.Addr, wire.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	vals := make([]uint64, 2000)
	r := xrand.New(99)
	for i := range vals {
		vals[i] = r.Uint64n(300)
	}
	if err := wc.InsertBatch("f", vals); err != nil {
		t.Fatal(err)
	}
	if err := wc.Flush(); err != nil {
		t.Fatal(err)
	}

	// Read-your-writes across surfaces: the HTTP estimate sees the
	// flushed wire batches.
	var sj amsd.SelfJoinBody
	getJSON(t, client, base+"/v1/selfjoin?relation=f", &sj, http.StatusOK)
	if sj.Len != 2000 {
		t.Fatalf("HTTP sees Len = %d after wire flush, want 2000", sj.Len)
	}
	getJSON(t, client, base+"/healthz", &hb, http.StatusOK)
	if hb.Wire == nil || hb.Wire.Rows != 2000 || hb.Wire.Conns != 1 {
		t.Fatalf("healthz wire counters = %+v", hb.Wire)
	}

	// Graceful shutdown underneath an open stream: the client learns via
	// GOODBYE (or a connection error), never a silent hang.
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("graceful shutdown exit = %v, want nil", err)
	}
	err = wc.InsertBatch("f", vals[:1])
	if err == nil {
		err = wc.Flush()
	}
	if err == nil {
		t.Fatal("stream survived daemon shutdown")
	}

	back, err := engine.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	rel, err := back.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2000 {
		t.Fatalf("recovered Len = %d, want 2000", rel.Len())
	}
}
