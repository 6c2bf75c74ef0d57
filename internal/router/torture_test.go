package router

import (
	"sync"
	"testing"
	"time"

	"amstrack/internal/coord"
	"amstrack/internal/engine"
	"amstrack/internal/oplog"
)

// The torture tests pin the fleet-level durability promise: a batch the
// router acknowledged (Flush returned nil) survives the kill -9 of any
// single node — either on the survivors via failover or on the victim's
// recovered disk image — exactly once. The final check is the strongest
// form: the merged fleet synopsis must be BIT-IDENTICAL to one engine
// that ingested every acknowledged batch, so a lost row and a
// double-applied row both fail the same assertion (AGMS linearity makes
// duplication as corrupting as loss).

// durableOpts is the on-disk node shape: memOpts plus a data directory,
// so recovered nodes compare byte for byte with in-memory mirrors.
func durableOpts(dir string) engine.Options {
	o := memOpts()
	o.Dir = dir
	return o
}

// tortureRouter: fast probes and short ACK deadlines so death is
// detected inside the test budget.
func tortureRouter(t *testing.T, nodes []*fleetNode) *Router {
	t.Helper()
	return testRouter(t, nodes, func(o *Options) {
		o.AckTimeout = 2 * time.Second
		o.ProbeInterval = 100 * time.Millisecond
		o.downAfter = 2
	})
}

// applyRange pushes batches [lo..hi] through writers concurrent
// goroutines and barriers with Flush — on return every batch in the
// range is acknowledged fleet-durable.
func applyRange(t *testing.T, rs *relState, lo, hi, writers int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := lo + w; i <= hi; i += writers {
				if err := rs.Apply(false, 1, batchVals(i)); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatalf("routed apply [%d..%d]: %v", lo, hi, err)
		}
	}
	if err := rs.Drain(); err != nil {
		t.Fatalf("flush [%d..%d]: %v", lo, hi, err)
	}
}

// TestRouterKillNineNoLostAck is the headline fault-injection arc:
// three durable nodes, concurrent routed ingest, kill -9 one node
// (oplog fault filesystem: surviving bytes stay, later writes fail
// atomically), keep ingesting through the failover, restart the victim
// from its disk image on the same address, let the rejoin audit
// re-admit it, ingest more — then merge all three partitions and
// compare bit-for-bit against a single mirror of the full acked stream.
func TestRouterKillNineNoLostAck(t *testing.T) {
	const nNodes = 3
	dirs := make([]string, nNodes)
	ffs := make([]*oplog.FaultFS, nNodes)
	engines := make([]*engine.Engine, nNodes)
	nodes := make([]*fleetNode, nNodes)
	for i := range nodes {
		dirs[i] = t.TempDir()
		ffs[i] = oplog.NewFaultFS(nil)
		o := durableOpts(dirs[i])
		o.FS = ffs[i]
		eng, err := engine.Open(o)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
		nodes[i] = startFleetNode(t, eng, true, "")
	}
	rt := tortureRouter(t, nodes)
	if err := rt.Define(coord.Schema{Relation: "f"}); err != nil {
		t.Fatal(err)
	}
	rs, err := rt.Relation("f")
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: concurrent acked ingest across the healthy fleet. The
	// Flush barrier inside applyRange pins the clean crash boundary:
	// everything below is both acked AND durable on its owner.
	const phase1 = 45
	applyRange(t, rs, 1, phase1, 3)

	// kill -9 node 1: its disk stops absorbing writes mid-flight. The
	// node stays network-reachable (the nastier failure mode — healthz
	// turns "degraded", and the router must refuse to trust its op
	// counters rather than promote non-durable work to acked).
	const victim = 1
	ffs[victim].CrashNow()

	// Phase 2: ingest THROUGH the failure. Batches routed at the victim
	// fail at its drain, come back as wire ERRORs, and must fail over to
	// the survivors without a single Apply or Flush error upstream.
	const phase2 = 90
	applyRange(t, rs, phase1+1, phase2, 3)
	waitFor(t, 10*time.Second, "victim marked down", func() bool {
		return nodeState(rt, nodes[victim].base) == "down"
	})

	// Restart the victim "process": listeners die, the poisoned engine
	// is abandoned, and a new engine recovers from the surviving disk
	// image on the victim's old address.
	host := nodes[victim].base[len("http://"):]
	nodes[victim].stop()
	_ = engines[victim].Close() // errors post-crash; the disk image is the truth
	back, err := engine.Open(durableOpts(dirs[victim]))
	if err != nil {
		t.Fatalf("recover victim from disk: %v", err)
	}
	t.Cleanup(func() { _ = back.Close() })
	rel, err := back.Get("f")
	if err != nil {
		t.Fatalf("victim lost the relation across the crash: %v", err)
	}
	recovered := rel.Len()
	if recovered == 0 {
		t.Fatal("victim recovered zero rows — its acked phase-1 partition is gone")
	}
	nodes[victim] = startFleetNode(t, back, true, host)

	// The rejoin audit must find recovered Seq == base + acked (the
	// failed-over phase-2 batches were never acked on the victim and
	// never became durable there) and re-admit the node.
	waitFor(t, 10*time.Second, "victim healthy after rejoin audit", func() bool {
		return nodeState(rt, nodes[victim].base) == "healthy"
	})

	// Phase 3: the rejoined node takes routed traffic again.
	const phase3 = 120
	applyRange(t, rs, phase2+1, phase3, 3)
	if got, err := nodes[victim].eng.Get("f"); err != nil || got.Len() <= recovered {
		t.Fatalf("rejoined victim took no new rows (err=%v)", err)
	}

	// The verdict: merge all three partitions; bit-identical to one
	// engine that saw every acked batch exactly once.
	expectBundleEqual(t, mergedFleetBundle(t, fleetBases(nodes), "f"),
		mirrorOf(t, "f", phase3), "kill -9 arc")
}

// TestRouterKillNineSurplusQuarantine is the poisonous recovery: the
// victim dies holding durable rows the router never acknowledged (an
// out-of-band writer hit the node directly), restarts, and asks back
// in. Blindly re-admitting it would be fine for routing but merging it
// would silently inflate every estimate built from the fleet — the
// audit must quarantine, and only an explicit Forget (operator accepts
// the node's state as a new baseline) re-admits it, after which the
// fleet merge must count the out-of-band rows exactly once too.
func TestRouterKillNineSurplusQuarantine(t *testing.T) {
	const nNodes = 2
	dirs := make([]string, nNodes)
	nodes := make([]*fleetNode, nNodes)
	for i := range nodes {
		dirs[i] = t.TempDir()
		eng, err := engine.Open(durableOpts(dirs[i]))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = eng.Close() })
		nodes[i] = startFleetNode(t, eng, true, "")
	}
	rt := tortureRouter(t, nodes)
	if err := rt.Define(coord.Schema{Relation: "f"}); err != nil {
		t.Fatal(err)
	}
	rs, err := rt.Relation("f")
	if err != nil {
		t.Fatal(err)
	}
	const phase1 = 20
	applyRange(t, rs, 1, phase1, 2)

	// Out-of-band durable surplus on node 0: rows the router never saw.
	const oob = 500 // batch id far outside the routed range
	victim := nodes[0]
	rel, err := victim.eng.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	rel.InsertBatch(batchVals(oob))
	if err := victim.eng.Drain(); err != nil {
		t.Fatal(err)
	}

	// Unclean exit and restart from disk.
	host := victim.base[len("http://"):]
	victim.stop()
	waitFor(t, 10*time.Second, "victim down", func() bool {
		return nodeState(rt, victim.base) == "down"
	})
	if err := victim.eng.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := engine.Open(durableOpts(dirs[0]))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = back.Close() })
	nodes[0] = startFleetNode(t, back, true, host)

	// The audit must refuse: recovered Seq exceeds base + acked.
	waitFor(t, 10*time.Second, "quarantine", func() bool {
		return nodeState(rt, nodes[0].base) == "quarantined"
	})

	// Routed ingest continues on the survivor alone.
	const phase2 = 30
	applyRange(t, rs, phase1+1, phase2, 2)

	// Operator decision: accept the node's state wholesale.
	if err := rt.Forget(nodes[0].base); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "healthy after forget", func() bool {
		return nodeState(rt, nodes[0].base) == "healthy"
	})
	const phase3 = 40
	applyRange(t, rs, phase2+1, phase3, 2)

	// Mirror = every routed batch plus the out-of-band one, each once.
	m, err := engine.New(memOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	mrel, err := m.Define("f")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= phase3; i++ {
		mrel.InsertBatch(batchVals(i))
	}
	mrel.InsertBatch(batchVals(oob))
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	want, err := m.ExportRelation("f")
	if err != nil {
		t.Fatal(err)
	}
	expectBundleEqual(t, mergedFleetBundle(t, fleetBases(nodes), "f"), want, "surplus arc")
}
