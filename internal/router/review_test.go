package router

import (
	"errors"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amstrack/internal/amsd"
	"amstrack/internal/coord"
	"amstrack/internal/engine"
	"amstrack/internal/wire"
	"amstrack/internal/xrand"
)

// absorbingVictim is the nastiest node shape for the rejoin audit: a
// real amsd HTTP surface (blockable on demand) over a real engine, plus
// a hand-rolled wire listener that APPLIES every batch it reads but
// never ACKs — the node equivalent of staging ops in the oplog and
// dying before acknowledging them, then recovering with those ops
// intact.
type absorbingVictim struct {
	eng     *engine.Engine
	base    string
	blocked atomic.Bool
}

func startAbsorbingVictim(t *testing.T) *absorbingVictim {
	t.Helper()
	eng, err := engine.New(memOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	v := &absorbingVictim{eng: eng}

	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = wireLn.Close() })
	inner := amsd.NewServer(eng)
	wireAddr := wireLn.Addr().String()
	inner.SetWireStatus(func() amsd.WireStatus { return amsd.WireStatus{Addr: wireAddr} })

	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if v.blocked.Load() {
			http.Error(w, `{"error":"node unreachable"}`, http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, req)
	})}
	go func() { _ = srv.Serve(httpLn) }()
	t.Cleanup(func() { _ = srv.Close() })
	v.base = "http://" + httpLn.Addr().String()

	go func() {
		for {
			conn, err := wireLn.Accept()
			if err != nil {
				return
			}
			go v.serveWire(conn)
		}
	}()
	return v
}

// serveWire handshakes, then swallows the stream: batches are applied
// to the engine (and drained, so stats see them) but no ACK is ever
// written back.
func (v *absorbingVictim) serveWire(nc net.Conn) {
	defer nc.Close()
	var rb []byte
	var f wire.Frame
	body, err := wire.ReadFrame(nc, &rb)
	if err != nil || wire.DecodeFrame(body, &f) != nil || f.Kind != wire.KindHello {
		return
	}
	if _, err := nc.Write(wire.AppendFrame(nil, &wire.Frame{Kind: wire.KindWelcome, Proto: wire.ProtoVersion})); err != nil {
		return
	}
	for {
		body, err := wire.ReadFrame(nc, &rb)
		if err != nil || wire.DecodeFrame(body, &f) != nil {
			return
		}
		if f.Kind != wire.KindBatch {
			continue
		}
		rel, err := v.eng.Get(f.Relation)
		if err != nil {
			continue
		}
		rel.InsertBatch(append([]uint64(nil), f.Vals...))
		_ = v.eng.Drain()
	}
}

// TestRouterSuspectRejoinAudit pins the review's high-severity hole: a
// node that crashes and answers /healthz again BEFORE reaching down
// (here: DownAfter is huge, so it never leaves suspect) must still pass
// the rejoin audit when its un-acked work was failed over. The victim
// absorbed batches it never acked; the router failed them over to the
// survivor while the victim was unreachable; when the victim answers
// probes again its oplog still holds the double-counted ops — restoring
// it straight to healthy would silently corrupt every fleet merge, so
// the audit must quarantine it instead.
func TestRouterSuspectRejoinAudit(t *testing.T) {
	survivorEng, err := engine.New(memOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = survivorEng.Close() })
	survivor := startFleetNode(t, survivorEng, true, "")
	victim := startAbsorbingVictim(t)

	client := &http.Client{Timeout: 5 * time.Second}
	rt, err := New(Options{
		Nodes:         []string{survivor.base, victim.base},
		Client:        client,
		Fetcher:       coord.NewFetcher(client, 2, 10*time.Millisecond),
		AckTimeout:    2 * time.Second,
		ProbeInterval: 50 * time.Millisecond,
		// The point of the test: the victim must NEVER reach down, so the
		// audit has to fire on the suspect → healthy transition.
		DownAfter: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	if err := rt.Define(coord.Schema{Relation: "f"}); err != nil {
		t.Fatal(err)
	}
	rs, err := rt.Relation("f")
	if err != nil {
		t.Fatal(err)
	}

	for i := 1; i <= 6; i++ {
		if err := rs.Apply(false, 1, batchVals(i)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	// The victim has staged (applied, un-acked) rows — the wire session
	// is up and the ring really routed part of the stream to it.
	waitFor(t, 5*time.Second, "victim staged routed rows", func() bool {
		rel, err := victim.eng.Get("f")
		return err == nil && rel.Len() > 0
	})

	// "Crash": the victim stops answering HTTP (and keeps not acking).
	// Well inside the 2s AckTimeout, so the teardown's reconcile finds
	// it unreachable and fails the pending batches over optimistically.
	victim.blocked.Store(true)
	if err := rs.Drain(); err != nil {
		t.Fatalf("drain through the failover: %v", err)
	}

	// "Fast recovery": healthz answers again after only a few failed
	// probes — nowhere near DownAfter. The recovered node still holds
	// every op the router just failed over to the survivor.
	victim.blocked.Store(false)

	waitFor(t, 10*time.Second, "suspect rejoin audited and quarantined", func() bool {
		return nodeState(rt, victim.base) == "quarantined"
	})
	var reasons []string
	for _, h := range rt.Health() {
		if h.Node == victim.base {
			reasons = h.Reasons
		}
	}
	if len(reasons) == 0 || !strings.Contains(reasons[0], "rejoin refused") {
		t.Fatalf("quarantine reasons = %q, want a rejoin-refused surplus audit", reasons)
	}
}

// TestRouterFailoverReturnsWithFullTargetQueue pins the sender-deadlock
// fix: failover runs on sender and read-loop goroutines, so it must
// never block on a target node's bounded queue — two senders failing
// over into each other's full queues would park both delivery loops
// forever. The router here has NO senders running and every queue
// pre-filled, so any synchronous enqueue inside failover blocks for
// good; the call must still return.
func TestRouterFailoverReturnsWithFullTargetQueue(t *testing.T) {
	opts := Options{Nodes: []string{"http://node-a", "http://node-b"}, QueueDepth: 1}.withDefaults()
	r := &Router{
		opts:  opts,
		ring:  NewRing(opts.Nodes, opts.VNodes),
		nodes: map[string]*node{},
		rels:  map[string]*relState{},
		stop:  make(chan struct{}),
		rng:   xrand.New(1),
	}
	r.cond = sync.NewCond(&r.mu)
	rs := &relState{r: r, name: "f", arity: 1, accts: map[string]*acct{}, inflight: 1}
	r.rels["f"] = rs
	for _, base := range r.ring.Members() {
		n := &node{base: base, queue: make(chan *subBatch, 1)}
		n.queue <- &subBatch{rel: rs} // full: the next enqueue would block
		r.nodes[base] = n
	}

	done := make(chan struct{})
	go func() {
		r.failover(&subBatch{rel: rs, vals: []uint64{1, 2, 3, 4}}, errors.New("node died"))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("failover blocked on a full queue — a sender calling it deadlocks the delivery loops")
	}
	// Release the parked re-enqueue goroutine and reap it.
	close(r.stop)
	r.done.Wait()
}

// TestRouterReconcileDeficitQuarantine pins the honest wording of the
// worst reconcile outcome: the node answers with FEWER ops than the
// acked ledger — acked data was lost — and the operator must be told
// that, not handed a bogus "absorbed -N of an M-row batch".
func TestRouterReconcileDeficitQuarantine(t *testing.T) {
	nodes := startFleet(t, 1, true) // the stat is trusted only after a passing probe
	rt := testRouter(t, nodes, nil)
	if err := rt.Define(coord.Schema{Relation: "f"}); err != nil {
		t.Fatal(err)
	}
	rs, err := rt.Relation("f")
	if err != nil {
		t.Fatal(err)
	}
	base := nodes[0].base
	rt.mu.Lock()
	rs.accts[base].acked = 96 // the ledger swears 96 ops were acked; the node has 0
	rs.inflight = 1
	n := rt.nodes[base]
	rt.mu.Unlock()

	sb := &subBatch{rel: rs, vals: batchVals(1)}
	rt.reconcile(n, []*subBatch{sb}, errors.New("conn reset"))

	rt.mu.Lock()
	state := n.state
	reasons := append([]string(nil), n.reasons...)
	sticky := rs.sticky
	rt.mu.Unlock()
	if state != StateQuarantined {
		t.Fatalf("node state = %v, want quarantined", state)
	}
	if len(reasons) == 0 || !strings.Contains(reasons[0], "acked data was lost") {
		t.Fatalf("quarantine reason = %q, want an explicit acked-data-lost deficit", reasons)
	}
	if sticky == nil || !strings.Contains(sticky.Error(), "lost acked data") {
		t.Fatalf("sticky error = %v, want the deficit surfaced upstream", sticky)
	}
}

// TestRouterDefineRace409 pins the first-touch adoption race: when two
// adopters both see ErrNotFound and both replay the define, the loser's
// 409 means "already defined" — success for an idempotent define — and
// must not fail the adopt.
func TestRouterDefineRace409(t *testing.T) {
	nodes := startFleet(t, 2, true)
	rt := testRouter(t, nodes, nil)
	sc := coord.Schema{Relation: "f"}
	if err := rt.opts.Fetcher.DefineRelation(nodes[0].base, sc); err != nil {
		t.Fatal(err)
	}
	if err := rt.opts.Fetcher.DefineRelation(nodes[0].base, sc); err != nil {
		t.Fatalf("losing the define race must be success, got: %v", err)
	}

	// End-to-end shape: two routers over the same fleet adopt the same
	// relation concurrently; both must succeed even when one's defines
	// land second everywhere.
	rt2 := testRouter(t, nodes, nil)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, r := range []*Router{rt, rt2} {
		wg.Add(1)
		go func(i int, r *Router) {
			defer wg.Done()
			errs[i] = r.Define(coord.Schema{Relation: "g"})
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("router %d define: %v", i, err)
		}
	}
}
