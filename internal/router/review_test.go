package router

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amstrack/internal/amsd"
	"amstrack/internal/coord"
	"amstrack/internal/engine"
	"amstrack/internal/oplog"
	"amstrack/internal/wire"
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
// (here: downAfter is huge, so it never leaves suspect) must still pass
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
		downAfter: 1 << 20,
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
	// probes — nowhere near downAfter. The recovered node still holds
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

// gatedSink is a node's engine sink whose Drain waits until open is
// closed: the node stages every batch it reads but acks none before
// then, so the router's window to it fills and stays full.
type gatedSink struct {
	wire.Sink
	open chan struct{}
}

func (s gatedSink) Relation(name string) (wire.SinkRelation, error) {
	rel, err := s.Sink.Relation(name)
	if err != nil {
		return nil, err
	}
	return gatedRel{rel, s.open}, nil
}

type gatedRel struct {
	wire.SinkRelation
	open chan struct{}
}

func (r gatedRel) Drain() error {
	<-r.open
	return r.SinkRelation.Drain()
}

// startGatedFleet boots count nodes whose acks all wait for release.
// release is idempotent and also runs at cleanup, ahead of the nodes'
// own, so no wire server's Close waits on a held Drain.
func startGatedFleet(t *testing.T, count int) ([]*fleetNode, func()) {
	t.Helper()
	open := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(open) }) }
	nodes := make([]*fleetNode, count)
	for i := range nodes {
		eng, err := engine.New(memOpts())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = eng.Close() })
		nodes[i] = startSinkNode(t, eng, gatedSink{wire.EngineSink(eng), open}, "")
	}
	t.Cleanup(release)
	return nodes, release
}

// queueDepth reads one member's queue_depth from Health.
func queueDepth(rt *Router, base string) int {
	for _, h := range rt.Health() {
		if h.Node == base {
			return h.Queue
		}
	}
	return -1
}

// TestRouterFailoverReturnsWithFullTargetQueue pins that failover never
// blocks its caller on a target's ack window. failover runs on session
// read loops, whose ACKs are what open a full window: a read loop parked
// in a full window would wedge its own stream. Here every node's acker
// is held and QueueDepth is 1, so every window is full and a send inside
// failover would block until the release. The call must return at once,
// and the batch it took must land once the acks flow.
func TestRouterFailoverReturnsWithFullTargetQueue(t *testing.T) {
	nodes, release := startGatedFleet(t, 2)
	rt := testRouter(t, nodes, func(o *Options) { o.QueueDepth = 1 })
	if err := rt.Define(coord.Schema{Relation: "f"}); err != nil {
		t.Fatal(err)
	}
	rs, err := rt.Relation("f")
	if err != nil {
		t.Fatal(err)
	}
	// One key per node: a batch of them fills every window.
	var keys []uint64
	for _, n := range nodes {
		for k := uint64(0); ; k++ {
			if owner, _ := rt.Ring().Owner(k, nil); owner == n.base {
				keys = append(keys, k)
				break
			}
		}
	}
	if err := rs.Apply(false, 1, keys); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if q := queueDepth(rt, n.base); q != 1 {
			t.Fatalf("queue_depth of %s = %d, want a full window of 1", n.base, q)
		}
	}

	rt.mu.Lock()
	rs.inflight++ // the batch handed to failover below
	rt.mu.Unlock()
	done := make(chan struct{})
	go func() {
		rt.failover(&subBatch{rel: rs, vals: keys}, errors.New("node died"))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("failover blocked on a full window — a session read loop calling it wedges its own stream")
	}
	release()
	if err := rs.Drain(); err != nil {
		t.Fatalf("flush after release: %v", err)
	}
	if got, want := rt.fleetLen(rs), int64(2*len(keys)); got != want {
		t.Fatalf("fleet holds %d rows, want %d: the failed-over batch must land exactly once", got, want)
	}
}

// TestRouterQueueDepthBoundsUnacked pins QueueDepth as the bound on
// what one node holds: the sub-batches sent to it and not yet acked.
// While the node's acker is held, queue_depth rises to QueueDepth and
// never past it, and the next route blocks. Once the acker is released,
// Flush returns nil and the node's Seq equals the acked ledger.
func TestRouterQueueDepthBoundsUnacked(t *testing.T) {
	const depth, batches = 4, 12
	nodes, release := startGatedFleet(t, 1)
	base := nodes[0].base
	rt := testRouter(t, nodes, func(o *Options) { o.QueueDepth = depth })
	if err := rt.Define(coord.Schema{Relation: "f"}); err != nil {
		t.Fatal(err)
	}
	rs, err := rt.Relation("f")
	if err != nil {
		t.Fatal(err)
	}

	var routed atomic.Int64
	errc := make(chan error, 1)
	go func() {
		for i := 1; i <= batches; i++ {
			if err := rs.Apply(false, 1, batchVals(i)); err != nil {
				errc <- fmt.Errorf("batch %d: %w", i, err)
				return
			}
			routed.Add(1)
		}
		errc <- nil
	}()
	held := func() bool {
		if q := queueDepth(rt, base); q > depth {
			t.Fatalf("queue_depth = %d, past QueueDepth %d", q, depth)
		}
		return queueDepth(rt, base) == depth && routed.Load() == depth
	}
	waitFor(t, 5*time.Second, "a full window", held)
	for range 20 {
		if !held() {
			t.Fatalf("with the acker held: queue_depth = %d and %d routes returned, want %d and %d",
				queueDepth(rt, base), routed.Load(), depth, depth)
		}
		time.Sleep(5 * time.Millisecond)
	}

	release()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if err := rs.Drain(); err != nil {
		t.Fatalf("flush after release: %v", err)
	}
	st, err := rt.opts.Fetcher.FetchStat(base, "f")
	if err != nil {
		t.Fatal(err)
	}
	rt.mu.Lock()
	a := *rs.accts[base]
	rt.mu.Unlock()
	if st.Seq != a.base+a.acked || a.acked != batches*tortureBatch {
		t.Fatalf("node seq %d, ledger base %d + acked %d; want equal, with %d acked",
			st.Seq, a.base, a.acked, batches*tortureBatch)
	}
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

// TestRouterReconcileSurplusQuarantine pins reconcile's last case: the
// node's Seq is the acked ledger plus 3 rows, while the one pending
// sub-batch holds 96. A node logs each sub-batch as one record, so it
// never keeps part of one; 3 rows are outside input, sent out of band,
// and no whole-batch prefix of the pending stream explains them. The
// node must be quarantined, the sticky error must name the surplus, and
// nothing may be promoted to acked.
func TestRouterReconcileSurplusQuarantine(t *testing.T) {
	nodes := startFleet(t, 1, true) // the stat is trusted only after a passing probe
	rt := testRouter(t, nodes, nil)
	if err := rt.Define(coord.Schema{Relation: "f"}); err != nil {
		t.Fatal(err)
	}
	rs, err := rt.Relation("f")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := nodes[0].eng.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	rel.InsertBatch(make([]uint64, 96))                     // the acked ledger
	rel.InsertBatch([]uint64{1, 2, 3})                      // out of band
	pending := &subBatch{rel: rs, vals: make([]uint64, 96)} // never applied
	base := nodes[0].base
	rt.mu.Lock()
	rs.accts[base].acked = 96
	rs.inflight = 1
	n := rt.nodes[base]
	rt.mu.Unlock()

	rt.reconcile(n, []*subBatch{pending}, errors.New("conn reset"))

	rt.mu.Lock()
	state := n.state
	reasons := append([]string(nil), n.reasons...)
	sticky := rs.sticky
	acked := rs.accts[base].acked
	rt.mu.Unlock()
	if state != StateQuarantined {
		t.Fatalf("node state = %v, want quarantined", state)
	}
	if len(reasons) == 0 || !strings.Contains(reasons[0], "not a whole-batch prefix") {
		t.Fatalf("quarantine reason = %q, want a Seq that is no whole-batch prefix", reasons)
	}
	if sticky == nil || !strings.Contains(sticky.Error(), "surplus 3") {
		t.Fatalf("sticky error = %v, want the surplus of 3 named upstream", sticky)
	}
	if acked != 96 {
		t.Fatalf("acked ledger = %d after reconcile, want 96: nothing promoted", acked)
	}
}

// TestRouterReconcileProbesAfterStat pins the order of reconcile's
// reads. A node's un-acked rows can sit in its log writer's buffer until
// a barrier pushes them to the OS, and the stat reconcile reads is such
// a barrier. When that write fails, the node turns degraded only once
// the stat has answered, and the stat's Seq counts rows its disk never
// got. Reconcile must read healthz after the stats: degraded, so every
// pending sub-batch fails over to the survivor and none is promoted.
func TestRouterReconcileProbesAfterStat(t *testing.T) {
	fsys := oplog.NewFaultFS(nil)
	opts := memOpts()
	opts.Dir, opts.FS = t.TempDir(), fsys
	victimEng, err := engine.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = victimEng.Close() })
	victim := startFleetNode(t, victimEng, true, "")
	survivor := startFleet(t, 1, true)[0]
	rt := testRouter(t, []*fleetNode{victim, survivor}, nil)
	if err := rt.Define(coord.Schema{Relation: "f"}); err != nil {
		t.Fatal(err)
	}
	rs, err := rt.Relation("f")
	if err != nil {
		t.Fatal(err)
	}
	// The victim applied two sub-batches and died before acking them;
	// their records are still in its log writer's buffer, and its disk
	// is now full.
	rel, err := victimEng.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	pending := []*subBatch{{rel: rs, vals: batchVals(1)}, {rel: rs, vals: batchVals(2)}}
	for _, sb := range pending {
		rel.InsertBatch(sb.vals)
	}
	fsys.LimitWriteBytes(0)

	rt.mu.Lock()
	rs.inflight = len(pending)
	n := rt.nodes[victim.base]
	n.reconciling = true // as teardown holds it: no probe rejoin, no new session
	rt.mu.Unlock()
	rt.reconcile(n, pending, errors.New("conn reset"))
	if err := rt.Flush("f"); err != nil {
		t.Fatal(err)
	}

	rt.mu.Lock()
	acked := rs.accts[victim.base].acked
	var attempts []int
	for _, sb := range pending {
		attempts = append(attempts, sb.attempts)
	}
	rt.mu.Unlock()
	if acked != 0 {
		t.Fatalf("router promoted %d rows of a node that turned degraded at the stat", acked)
	}
	if !slices.Equal(attempts, []int{1, 1}) {
		t.Fatalf("failover attempts per pending sub-batch = %v, want [1 1]", attempts)
	}
	srel, err := survivor.eng.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if got := srel.Len(); got != 2*tortureBatch {
		t.Fatalf("survivor holds %d rows, want the %d failed over", got, 2*tortureBatch)
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
