// The engine's write path: one sequencer per relation, one absorber per
// shard.
//
// The AGMS synopses are LINEAR in the frequency vector, so updates
// commute; what fixes an order is §5's update log, which a tracker steps
// through to catch up. Each relation therefore funnels its writes
// through one goroutine, the sequencer, which logs every batch whole, in
// arrival order, and only then hands each shard its rows. Every message
// is a RUN — rows of one kind and arity, row-major (oplog.Run):
//
//	caller ──stage──▶ staged run of its kind (one for inserts, one for
//	   │               deletes) under the relation's mutex; both sent on
//	   │               when either fills, and before any barrier
//	   └─batch──▶ split by shard outside the mutex: count, then fill one
//	              buffer and note where each shard's region ends
//	                   ▼
//	   queue (48) ──▶ sequencer: AppendRun logs the batch as one version-3
//	                   │      record in one segment (more only past
//	                   │      oplog.MaxRecordVals values) through the log
//	                   │      writer's 4 KiB buffer, written out when full
//	                   ▼      and at every barrier; then each region
//	   shard channel (16) ──▶ absorber: the ONLY writer of its shard's
//	                           synopses, so no lock around counters
//
// Per-shard apply order equals log order: a shard's region keeps its rows
// in batch order, and the sequencer hands out regions in log order.
// Replay, applying each shard's rows in log order, rebuilds the
// order-sensitive heavy-hitter table bit-exactly. A batch splits on the
// caller's goroutine, so concurrent writers split in parallel, and goes
// on the queue under the mutex. A full staged run, a batch or a barrier
// first sends the staged inserts, then the staged deletes: no single
// delete reaches the log ahead of a single insert staged before it, and
// no batch ahead of a single op staged before it.
//
// Single-writer discipline: after newIngester returns, a shard's state is
// written by its absorber alone. Every other access rides one barrier
// through the queue. The sequencer answers it by pushing pending records
// to the OS and forwarding it to every absorber —
//
//	drain    each absorber marks its arrival and goes on: everything
//	         staged before the call is applied and OS-owned. The wire ACK
//	         barrier.
//	park     each absorber marks its arrival and blocks until released:
//	         while parked, the caller owns the shard state and reads it
//	         (cut — every query, export, stat and checkpoint) or writes
//	         it (bundle merges) directly, with no lock. The one queue
//	         hands concurrent parkers to every shard in the same order.
//	fence    a park before which the sequencer makes a checkpoint's
//	         pre-forked next-epoch log current: the retiring epoch holds
//	         exactly the batches the cut covers.
package engine

import (
	"fmt"
	"sync"

	"amstrack/internal/oplog"
)

// seqMsg is one message to the sequencer: a batch split by shard — shard
// i's rows are run.Vals[ends[i-1]:ends[i]], shard 0's starting at 0 — or
// a barrier.
type seqMsg struct {
	run     oplog.Run
	ends    []int
	barrier *absBarrier
}

// shardMsg is one message to an absorber: a run of its shard's rows, or a
// barrier.
type shardMsg struct {
	run     oplog.Run
	barrier *absBarrier
}

// absBarrier synchronizes with the absorbers: each marks arrived done on
// reaching it and, when park is set, blocks until park is closed. fence
// makes the sequencer flip the log's epoch first (see ingester.cut).
type absBarrier struct {
	arrived sync.WaitGroup
	park    chan struct{}
	fence   bool
}

// Queue depths. A batch waits in the queue whole and in the shard
// channels as shares, so up to queueDepth + shardChanDepth = 64 batches
// are in flight before a stalled disk or absorber pushes back on the
// caller. Shard channels much shallower than 16 make the sequencer park
// and wake several times per staged run: at 4 they cost the single-op
// cases of BenchmarkEngineIngest about a third.
const (
	queueDepth     = 48
	shardChanDepth = 16
)

// ingester is the write-path machinery of one relation.
type ingester struct {
	r     *Relation
	queue chan seqMsg
	chans []chan shardMsg
	wg    sync.WaitGroup // the sequencer and the absorbers
	// mu orders every send on the queue and guards the staged runs.
	// closing, set by stop under mu, ends all sends: a caller that takes
	// mu and finds it set is ordered after the pipeline's last write. A
	// send under mu may block on a full queue; neither the sequencer nor
	// an absorber ever takes mu, and a parker releases without it, so
	// the queue always drains.
	mu       sync.Mutex
	ins, del oplog.Run
	closing  bool
}

// newIngester builds and starts the staged runs, the sequencer and one
// absorber per shard.
func newIngester(r *Relation) *ingester {
	a, n := r.arity, r.eng.opts.stageOps*r.arity
	g := &ingester{
		r:     r,
		queue: make(chan seqMsg, queueDepth),
		chans: make([]chan shardMsg, len(r.shards)),
		ins:   oplog.Run{Arity: a, Vals: make([]uint64, 0, n)},
		del:   oplog.Run{Del: true, Arity: a, Vals: make([]uint64, 0, n)},
	}
	for i := range g.chans {
		g.chans[i] = make(chan shardMsg, shardChanDepth)
	}
	g.wg.Add(len(g.chans) + 1)
	for i := range g.chans {
		go g.absorb(i)
	}
	go g.sequence()
	return g
}

// stage buffers one row of the relation's arity in the staged run of its
// kind; a full run sends both staged runs on. Rows staged against a
// stopped ingester (relation dropped, engine closed — an amsd ingest
// racing a DELETE) are discarded.
func (g *ingester) stage(del bool, row ...uint64) {
	g.mu.Lock()
	if !g.closing {
		s := &g.ins
		if del {
			s = &g.del
		}
		s.Vals = append(s.Vals, row...)
		if len(s.Vals) == cap(s.Vals) {
			g.sendStaged()
		}
	}
	g.mu.Unlock()
}

// batch splits rows of the relation's arity by shard, then puts them on
// the queue after the single ops staged before it. A batch against a
// stopped ingester is discarded.
func (g *ingester) batch(del bool, vals []uint64) {
	m := g.split(del, vals)
	g.mu.Lock()
	if !g.closing {
		g.sendStaged()
		g.queue <- m
	}
	g.mu.Unlock()
}

// sendStaged sends the staged inserts, then the staged deletes, and
// empties both for reuse. Caller holds mu, with closing unset.
func (g *ingester) sendStaged() {
	for _, s := range [2]*oplog.Run{&g.ins, &g.del} {
		if len(s.Vals) > 0 {
			g.queue <- g.split(s.Del, s.Vals)
			s.Vals = s.Vals[:0]
		}
	}
}

// split copies rows of the relation's arity into one fresh buffer grouped
// by shard — count, then fill, each shard's rows in their order in vals —
// and returns it as a batch for the sequencer. The buffer is fresh
// because callers reuse vals as soon as the send returns (a staged run,
// the wire server's frame).
func (g *ingester) split(del bool, vals []uint64) seqMsg {
	a := g.r.arity
	at := make([]int, len(g.chans)+1)
	for j := 0; j < len(vals); j += a {
		at[g.r.shardOf(vals[j])+1] += a
	}
	for i := 1; i < len(at); i++ {
		at[i] += at[i-1] // at[i] is now where shard i's region starts
	}
	out := make([]uint64, len(vals))
	if a == 1 {
		for _, v := range vals {
			i := g.r.shardOf(v)
			out[at[i]] = v
			at[i]++
		}
	} else {
		for j := 0; j < len(vals); j += a {
			i := g.r.shardOf(vals[j])
			copy(out[at[i]:], vals[j:j+a])
			at[i] += a
		}
	}
	// The fill has moved at[i] to the end of shard i's region.
	return seqMsg{run: oplog.Run{Del: del, Arity: a, Vals: out}, ends: at[:len(g.chans)]}
}

// sequence is the relation's sequencer: it logs each batch as it comes
// off the queue, then hands each absorber its region, so the log's order
// is the order every shard applies. Records collect in the
// oplog.Writer's 4 KiB buffer, which goes to the OS each time it fills;
// a barrier pushes the rest, so every op staged before a drain, park or
// fence is OS-owned once the barrier reaches the absorbers — the group
// commit every acknowledgement waits for. Write errors go sticky on the
// relation's log and surface on Err, Drain, Sync, Checkpoint, and
// erroring caller-side ops. When stop closes the queue, the sequencer
// pushes what is pending and closes the shard channels.
func (g *ingester) sequence() {
	defer g.wg.Done()
	for m := range g.queue {
		if b := m.barrier; b != nil {
			g.r.log.osFlush()
			if b.fence {
				g.r.log.flip()
			}
			for _, ch := range g.chans {
				ch <- shardMsg{barrier: b}
			}
			continue
		}
		g.r.log.appendRun(m.run)
		lo := 0
		for i, ch := range g.chans {
			if hi := m.ends[i]; hi > lo {
				ch <- shardMsg{run: oplog.Run{Del: m.run.Del, Arity: m.run.Arity, Vals: m.run.Vals[lo:hi:hi]}}
				lo = hi
			}
		}
	}
	g.r.log.osFlush()
	for _, ch := range g.chans {
		close(ch)
	}
}

// absorb is the per-shard apply loop: the ONLY writer of its shard's
// synopses, so no lock is taken around counter updates.
func (g *ingester) absorb(shard int) {
	defer g.wg.Done()
	sh := &g.r.shards[shard]
	buf := newApplyBuf(g.r.arity)
	for msg := range g.chans[shard] {
		if b := msg.barrier; b != nil {
			b.arrived.Done()
			if b.park != nil {
				<-b.park
			}
			continue
		}
		sh.apply(msg.run, &g.r.plan, buf)
	}
}

// applyBuf is the reusable scratch of one apply loop: a shard's
// absorber, or one segment's replay. cols holds a run's attributes as
// columns, one per attribute of the relation's arity; one holds an
// arity-1 run's values, which are their own column.
type applyBuf struct {
	cols [][]uint64
	one  [1][]uint64
}

func newApplyBuf(arity int) *applyBuf {
	return &applyBuf{cols: make([][]uint64, arity)}
}

// columns returns rn's attributes as columns: every attribute when all is
// set, else only the primary one (column 0). An arity-1 run is not
// copied.
func (b *applyBuf) columns(rn oplog.Run, all bool) [][]uint64 {
	if rn.Arity == 1 {
		b.one[0] = rn.Vals
		return b.one[:]
	}
	w := 1
	if all {
		w = rn.Arity
	}
	for j := 0; j < w; j++ {
		c := b.cols[j][:0]
		for k := j; k < len(rn.Vals); k += rn.Arity {
			c = append(c, rn.Vals[k])
		}
		b.cols[j] = c
	}
	return b.cols
}

// apply is the one write of a shard's synopses, one run at a time: the
// absorber calls it per message, log replay per shard's run of rows. The
// run goes to the signature and the sketch as one batch; the chain
// synopses take their columns; the heavy-hitter table — the one
// order-SENSITIVE synopsis — takes the rows one by one, in order. A run
// whose width is not the schema's — a pre-schema log replayed into a
// re-declared relation — feeds only the pairwise synopses, per the
// upgrade contract. The caller owns the shard state, so no lock is taken.
func (sh *sigShard) apply(rn oplog.Run, p *chainPlan, buf *applyBuf) {
	chain := sh.chain != nil && rn.Arity == len(buf.cols)
	cols := buf.columns(rn, chain)
	keys := cols[0]
	if rn.Del {
		// Engine synopses never error on deletes (pure linearity).
		_ = sh.sig.DeleteBatch(keys)
		if sh.sketch != nil {
			_ = sh.sketch.DeleteBatch(keys)
		}
	} else {
		sh.sig.InsertBatch(keys)
		if sh.sketch != nil {
			sh.sketch.InsertBatch(keys)
		}
	}
	if chain {
		sh.chain.apply(p, cols, rn.Del)
	}
	if sh.hh != nil {
		for _, v := range keys {
			if rn.Del {
				sh.hh.Delete(v)
			} else {
				sh.hh.Insert(v)
			}
		}
	}
	sh.ops += uint64(len(keys))
}

// barrier sends b on the queue after everything staged and waits until
// every absorber has reached it. False means stop got there first: the
// pipeline has shut down, and the caller, ordered after its last write
// through mu, may read the shard state directly.
func (g *ingester) barrier(b *absBarrier) bool {
	b.arrived.Add(len(g.chans))
	g.mu.Lock()
	if g.closing {
		g.mu.Unlock()
		return false
	}
	g.sendStaged()
	g.queue <- seqMsg{barrier: b}
	g.mu.Unlock()
	b.arrived.Wait()
	return true
}

// drain is the read-your-writes barrier: every op staged before the call
// is applied to the synopses and pushed to the OS-owned log buffer. A
// no-op once the ingester stopped (stop drains everything itself).
func (g *ingester) drain() { g.barrier(&absBarrier{}) }

// stop drains and permanently shuts down the pipeline (Drop, Close,
// engine replacement; caller holds the engine mutex exclusively): staged
// ops are applied and logged, the goroutines exit, and nothing new can
// enter. stop holds mu until the goroutines are gone, so a later caller
// that finds closing set reads the quiet shards directly (see park).
// Queries keep working that way; further ingest is discarded (the
// relation is detached or its engine closed).
func (g *ingester) stop() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closing {
		return
	}
	g.sendStaged()
	g.closing = true
	close(g.queue)
	g.wg.Wait()
}

// park parks each absorber at one barrier, a fence when fence is set. On
// return everything staged before the call is applied and no absorber
// runs until release is called, so the caller owns the shard state: cut
// reads it, absorbBundle writes it. Once the pipeline has stopped the
// shards are quiet for good, so park returns a no-op release with live
// false — the live read and the post-stop read are the same code.
func (g *ingester) park(fence bool) (release func(), live bool) {
	b := &absBarrier{park: make(chan struct{}), fence: fence}
	if !g.barrier(b) {
		return func() {}, false
	}
	return func() { close(b.park) }, true
}

// cut is the one read of a relation: its shards at a single park, merged
// into one bundle, so the signature, sketch, chain section, heavy
// hitters, Rows and Seq all describe the same op prefix. With synopses
// unset only Rows and Seq are read (the stat probe). With fence set the
// cut is a checkpoint's epoch fence: the log's forked next epoch becomes
// current at the park, so the retiring epoch's segments hold exactly the
// batches the cut covers. Writers never block beyond queue backpressure.
// live is false when the pipeline had stopped; the read is then still
// exact, but no epoch flips.
func (g *ingester) cut(synopses, fence bool) (b RelationBundle, live bool) {
	if synopses {
		// Built before parking: the absorbers wait only for the merge.
		b = g.r.emptyCut()
	}
	release, live := g.park(fence)
	g.r.read(&b)
	release()
	return b, live
}

// emptyCut builds the empty synopses of the relation's shape for a cut
// to merge the shards into.
func (r *Relation) emptyCut() RelationBundle {
	b := RelationBundle{Sig: r.eng.fastFam.NewSignature()}
	if !r.eng.opts.NoSketch {
		b.Sketch = r.eng.newSketch()
	}
	if !r.schema.legacy() {
		b.Chain = &ChainBundle{Schema: r.Schema()}
		if r.schema.hasChain() {
			sc := r.newEmptyChain()
			b.Chain.Ends, b.Chain.Mids = sc.ends, sc.mids
		}
	}
	if r.skims() {
		b.HH, b.SkimHitters = r.newRelHH(), r.schema.SkimHitters
	}
	return b
}

// read adds the shards into b: Rows and Seq always, and every synopsis b
// carries. The caller owns the shard state (see park). Per-shard
// heavy-hitter tables hold disjoint key sets (shardOf is a pure function
// of the value), so their union is exact, never lossy.
func (r *Relation) read(b *RelationBundle) {
	for i := range r.shards {
		sh := &r.shards[i]
		b.Seq += sh.ops
		b.Rows += sh.sig.Len()
		if b.Sig == nil {
			continue
		}
		must(b.Sig.Merge(sh.sig))
		if b.Sketch != nil {
			must(b.Sketch.Merge(sh.sketch))
		}
		if sh.chain != nil {
			(&shardChain{ends: b.Chain.Ends, mids: b.Chain.Mids}).merge(sh.chain)
		}
		if b.HH != nil {
			b.HH.MergeItems(sh.hh.Items())
		}
	}
}

// must panics on an error that means an engine invariant broke: the
// shards of one relation share every hash family, so merging or building
// them cannot fail.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("engine: shard cut: %v", err))
	}
}
