// The engine's write path: a lock-free buffer-and-absorb pipeline.
//
// The AGMS synopses are LINEAR in the frequency vector, so updates
// commute — nothing about the math requires per-op locks or a
// synchronous oplog append. This file exploits that freedom with a
// buffer-and-absorb pipeline that moves RUNS — rows of one kind and
// arity, row-major (oplog.Run) — from end to end:
//
//	caller ──stage──▶ CAS-claimed staging slot (no mutexes; one run,
//	   │                │ flushed when full, on a kind switch, or drain)
//	   └─batch──────────┤
//	                    ▼ split by shard: count, then fill one buffer
//	        per-shard channel ──▶ absorber goroutine (single writer,
//	                    │          applies each run to its sigShard with
//	                    │          NO lock)
//	                    ▼ the same run
//	        log channel ──▶ group-commit writer (AppendRun: one
//	                         version-3 record per run — more past 4,096
//	                         rows or across a segment roll — flushed on
//	                         FlushOps rows or FlushInterval)
//
// Callers pick a staging slot from a hint derived from their own stack
// address (goroutine-affine, zero shared state) and claim it with one
// compare-and-swap: the per-op cost is a CAS, an append, and a release
// store. Skewed workloads cannot re-concentrate contention the way they
// do on value-hashed shard locks, because slot choice depends on the
// WRITER, not the value. Batches skip the slot's buffer: the claim is
// held only while the batch is split and sent.
//
// Single-writer discipline: after newIngester returns, a shard's state is
// written by its absorber goroutine alone. Every other access rides one
// of two synchronization shapes —
//
//	drain    flush all slots, then a plain barrier message through every
//	         shard channel and the log channel: everything staged before
//	         the call is applied and handed to the OS. The wire ACK
//	         barrier.
//	park     flush all slots, then a barrier each absorber answers by
//	         blocking until released: while parked, the caller owns the
//	         shard state and reads it (cut — every query, export, stat and
//	         checkpoint) or writes it (bundle merges) directly, with no
//	         lock. Parking barriers go out under one lock, so every shard
//	         channel sees concurrent parkers in the same order.
//
// Validity note: per-value op order can transiently reorder across slot
// migrations (a goroutine's earlier op staged in another slot), so a
// delete may reach a counter before its insert. By linearity the final
// counters are unaffected, and none of the engine's synopses error on
// transient negatives — deletions are pure counter subtraction.
package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"amstrack/internal/oplog"
)

// stageSlot is one CAS-claimed staging buffer: a run of the relation's
// arity, its values reused from flush to flush. The claim covers both the
// buffer and the right to send on the shard channels, which is what lets
// stop turn "hold every slot" into a permanent end of ingest.
type stageSlot struct {
	claimed atomic.Bool
	_       [63]byte // keep hot claim words on distinct cache lines
	run     oplog.Run
	_       [24]byte
}

// shardMsg is one message to an absorber: a run of its shard's rows, or a
// barrier.
type shardMsg struct {
	run     oplog.Run
	barrier *absBarrier
}

// absBarrier synchronizes with the absorbers: each marks wg done on
// reaching it and, when park is set, blocks until park is closed (see
// ingester.park).
type absBarrier struct {
	wg   *sync.WaitGroup
	park chan struct{}
}

// logMsg is one message to the group-commit log writer: an applied run
// to append, or a flush barrier. epoch is the log epoch the sending shard
// was on when it applied the run — during a checkpoint's fence window it
// routes the append between the retiring and the forked log.
type logMsg struct {
	run     oplog.Run
	epoch   uint64
	barrier *sync.WaitGroup
}

// Channel depths: deep enough to decouple bursts, shallow enough that a
// stalled disk exerts backpressure instead of ballooning memory.
const (
	shardChanDepth = 64
	logChanDepth   = 256
)

// ingester is the write-path machinery of one relation.
type ingester struct {
	r        *Relation
	slots    []stageSlot
	slotMask uint32
	chans    []chan shardMsg
	logCh    chan logMsg // nil for in-memory engines
	absWg    sync.WaitGroup
	logWg    sync.WaitGroup
	// sendMu guards barrier sends (the only channel sends not covered by
	// a slot claim) against stop closing the channels: stop sets closing
	// under the write lock before close. Parking barriers are sent under
	// the write lock too, which orders concurrent parkers. Never touched
	// on the per-op path.
	sendMu  sync.RWMutex
	closing bool
	// stopped is set only after every pipeline goroutine has exited; an
	// observer of true is synchronized with all absorber writes.
	stopped atomic.Bool
	// shardEpochs[i] is the log epoch shard i currently applies under.
	// Written only by a checkpoint cut while every absorber is parked,
	// and read by shard i's absorb loop after the release, so no atomics:
	// the park orders the two.
	shardEpochs []uint64
}

// newIngester builds and starts the staging slots, one absorber per
// shard, and (for durable engines) the group-commit log writer.
func newIngester(r *Relation) *ingester {
	nSlots := 4
	for nSlots < 2*runtime.GOMAXPROCS(0) {
		nSlots <<= 1
	}
	g := &ingester{
		r:           r,
		slots:       make([]stageSlot, nSlots),
		slotMask:    uint32(nSlots - 1),
		chans:       make([]chan shardMsg, len(r.shards)),
		shardEpochs: make([]uint64, len(r.shards)),
	}
	for i := range g.chans {
		g.chans[i] = make(chan shardMsg, shardChanDepth)
	}
	g.absWg.Add(len(g.chans))
	for i := range g.chans {
		go g.absorb(i)
	}
	if r.eng.opts.Dir != "" {
		g.logCh = make(chan logMsg, logChanDepth)
		g.logWg.Add(1)
		go g.logger()
	}
	return g
}

// stackHint derives a goroutine-affine staging-slot hint from the
// address of a stack variable: distinct goroutines live on distinct
// stacks, so concurrent writers spread across slots with zero shared
// state. Purely a load-balancing hint — correctness never depends on it
// (the CAS claim does that), so stack moves and collisions are harmless.
func stackHint() uint32 {
	var b byte
	return uint32(uintptr(unsafe.Pointer(&b)) >> 9)
}

// claim acquires a staging slot, probing from the caller's stack hint.
// An uncontended writer reclaims the same slot every call (one CAS).
// After stop the slots are held forever, so a late ingest spins into the
// stopped check and gets nil: the op is discarded — the relation was
// dropped or its engine closed (an amsd ingest racing a DELETE), so a
// late op is a benign no-op.
func (g *ingester) claim() *stageSlot {
	h := stackHint()
	for spin := 0; ; spin++ {
		s := &g.slots[(h+uint32(spin))&g.slotMask]
		if s.claimed.CompareAndSwap(false, true) {
			return s
		}
		if g.stopped.Load() {
			return nil
		}
		if uint32(spin)&g.slotMask == g.slotMask {
			runtime.Gosched() // probed every slot once; let a holder run
		}
	}
}

// claimSlot spins until it owns the specific slot (drain, park, stop);
// false means the ingester stopped and the slots are held for good.
func (g *ingester) claimSlot(s *stageSlot) bool {
	for spin := 0; ; spin++ {
		if s.claimed.CompareAndSwap(false, true) {
			return true
		}
		if g.stopped.Load() {
			return false
		}
		if spin&63 == 63 {
			runtime.Gosched()
		}
	}
}

// stage buffers one row of the relation's arity; the caller path is a
// CAS, an append and a release store. A slot holds one run, so a row of
// the other kind flushes the slot first: alternating inserts and deletes
// send one message per switch. Rows staged against a stopped ingester
// (relation dropped, engine closed) are discarded.
func (g *ingester) stage(del bool, row ...uint64) {
	s := g.claim()
	if s == nil {
		return
	}
	if s.run.Vals == nil {
		a := g.r.arity
		s.run = oplog.Run{Arity: a, Vals: make([]uint64, 0, g.r.eng.opts.stageOps*a)}
	}
	if s.run.Del != del {
		g.flushSlot(s)
		s.run.Del = del
	}
	s.run.Vals = append(s.run.Vals, row...)
	if len(s.run.Vals) == cap(s.run.Vals) {
		g.flushSlot(s)
	}
	s.claimed.Store(false)
}

// stageBatch hands a whole run straight to the absorbers; the slot claim
// is held only as the quiescence token.
func (g *ingester) stageBatch(rn oplog.Run) {
	if s := g.claim(); s != nil {
		g.send(rn)
		s.claimed.Store(false)
	}
}

// stageRows is stageBatch for rows held one slice each.
func (g *ingester) stageRows(rows [][]uint64, del bool) {
	s := g.claim()
	if s == nil {
		return
	}
	a := g.r.arity
	at := make([]int, len(g.chans)+1)
	for _, row := range rows {
		at[g.r.shardOf(row[0])+1] += a
	}
	starts(at)
	out := make([]uint64, len(rows)*a)
	for _, row := range rows {
		i := g.r.shardOf(row[0])
		copy(out[at[i]:], row)
		at[i] += a
	}
	g.deliver(out, at, del, a)
	s.claimed.Store(false)
}

// flushSlot hands a claimed slot's run to the absorbers and resets its
// buffer for reuse. Caller holds the claim.
func (g *ingester) flushSlot(s *stageSlot) {
	if len(s.run.Vals) > 0 {
		g.send(s.run)
		s.run.Vals = s.run.Vals[:0]
	}
}

// send splits a run by shard into one fresh buffer — count, then fill —
// and hands each shard its rows as one run, in their order in rn. The
// buffer is fresh because callers reuse rn's values as soon as send
// returns (a slot's buffer, the wire server's frame). The caller holds a
// slot claim: the quiescence token that keeps stop out while sends are in
// flight.
func (g *ingester) send(rn oplog.Run) {
	a := rn.Arity
	at := make([]int, len(g.chans)+1)
	for j := 0; j < len(rn.Vals); j += a {
		at[g.r.shardOf(rn.Vals[j])+1] += a
	}
	starts(at)
	out := make([]uint64, len(rn.Vals))
	if a == 1 {
		for _, v := range rn.Vals {
			i := g.r.shardOf(v)
			out[at[i]] = v
			at[i]++
		}
	} else {
		for j := 0; j < len(rn.Vals); j += a {
			i := g.r.shardOf(rn.Vals[j])
			copy(out[at[i]:], rn.Vals[j:j+a])
			at[i] += a
		}
	}
	g.deliver(out, at, rn.Del, a)
}

// starts turns at[i+1] = shard i's value count into at[i] = where shard
// i's region of the split buffer starts.
func starts(at []int) {
	for i := 1; i < len(at); i++ {
		at[i] += at[i-1]
	}
}

// deliver sends each shard its region of a filled split buffer: the fill
// has moved at[i] to the end of shard i's region, where shard i+1's
// starts.
func (g *ingester) deliver(out []uint64, at []int, del bool, a int) {
	lo := 0
	for i, ch := range g.chans {
		if hi := at[i]; hi > lo {
			ch <- shardMsg{run: oplog.Run{Del: del, Arity: a, Vals: out[lo:hi:hi]}}
			lo = hi
		}
	}
}

// flushAllSlots claims every slot in turn and flushes it; with hold the
// claims are kept (stop), otherwise each is released immediately.
// Returns false when the ingester stopped underneath the sweep (slots
// already claimed for good; any held by this sweep are left held, which
// is where stop leaves them anyway).
func (g *ingester) flushAllSlots(hold bool) bool {
	for i := range g.slots {
		s := &g.slots[i]
		if !g.claimSlot(s) {
			return false
		}
		g.flushSlot(s)
		if !hold {
			s.claimed.Store(false)
		}
	}
	return true
}

// absorb is the per-shard apply loop: the ONLY writer of its shard's
// synopses, so no lock is taken around counter updates.
func (g *ingester) absorb(shard int) {
	defer g.absWg.Done()
	sh := &g.r.shards[shard]
	buf := newApplyBuf(g.r.arity)
	for msg := range g.chans[shard] {
		if msg.barrier != nil {
			msg.barrier.wg.Done()
			if msg.barrier.park != nil {
				<-msg.barrier.park
			}
			continue
		}
		// The same run goes to the log writer, so per-shard apply order
		// equals per-shard log order: replay, applying each shard's rows
		// in log order, rebuilds the order-sensitive heavy-hitter table
		// bit-exactly.
		sh.apply(msg.run, &g.r.plan, buf)
		if g.logCh != nil {
			g.logCh <- logMsg{run: msg.run, epoch: g.shardEpochs[shard]}
		}
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

// logger is the group-commit oplog writer: runs applied by the absorbers
// accumulate in the oplog.Writer's buffer, one version-3 record each, and
// are pushed to the OS when the flush policy comes due — FlushOps rows,
// or FlushInterval after the oldest pending record, whichever first.
// Write errors go sticky on the relation's log and surface on Err, Drain,
// Sync, Checkpoint, and erroring caller-side ops.
func (g *ingester) logger() {
	defer g.logWg.Done()
	policy := oplog.FlushPolicy{
		MaxRecords: g.r.eng.opts.FlushOps,
		MaxDelay:   g.r.eng.opts.FlushInterval,
	}.Normalize()
	timer := time.NewTimer(policy.MaxDelay)
	timer.Stop()
	pending, armed := 0, false
	flush := func() {
		if pending > 0 {
			g.r.log.osFlush()
			pending = 0
		}
		if armed {
			timer.Stop()
			armed = false
		}
	}
	for {
		select {
		case m, ok := <-g.logCh:
			if !ok {
				flush()
				return
			}
			if m.barrier != nil {
				flush()
				m.barrier.Done()
				continue
			}
			g.r.log.appendRun(m.run, m.epoch)
			pending += m.run.Rows()
			if policy.Due(pending, 0) {
				flush()
			} else if !armed {
				timer.Reset(policy.MaxDelay)
				armed = true
			}
		case <-timer.C:
			armed = false
			flush()
		}
	}
}

// barrier flushes nothing itself: it sends a plain barrier through every
// shard channel and waits. Per-channel FIFO means everything enqueued
// before the barrier is applied (and forwarded to the log writer) first.
// False means stop got there first.
func (g *ingester) barrier() bool {
	g.sendMu.RLock()
	if g.closing {
		g.sendMu.RUnlock()
		return false
	}
	var wg sync.WaitGroup
	wg.Add(len(g.chans))
	b := &absBarrier{wg: &wg}
	for _, ch := range g.chans {
		ch <- shardMsg{barrier: b}
	}
	g.sendMu.RUnlock()
	wg.Wait()
	return true
}

// logBarrier waits until the log writer has appended and OS-flushed
// every op forwarded before the call.
func (g *ingester) logBarrier() {
	if g.logCh == nil {
		return
	}
	g.sendMu.RLock()
	if g.closing {
		g.sendMu.RUnlock()
		return
	}
	var wg sync.WaitGroup
	wg.Add(1)
	g.logCh <- logMsg{barrier: &wg}
	g.sendMu.RUnlock()
	wg.Wait()
}

// waitStopped spins until stop has fully shut the pipeline down — the
// synchronization point that makes post-stop direct reads race-free.
func (g *ingester) waitStopped() {
	for !g.stopped.Load() {
		runtime.Gosched()
	}
}

// drain is the read-your-writes barrier: every op staged before the call
// is applied to the synopses and pushed to the OS-owned log buffer. A
// no-op once the ingester stopped (stop drains everything itself).
func (g *ingester) drain() {
	if !g.flushAllSlots(false) {
		return
	}
	if !g.barrier() {
		g.waitStopped()
		return
	}
	g.logBarrier()
}

// stop drains and permanently shuts down the pipeline (Drop, Close,
// engine replacement; caller holds the engine mutex exclusively): staged
// ops are applied and logged, the goroutines exit, and the staging slots
// stay claimed forever so nothing new can enter. The stopped flag is set
// only AFTER the goroutines exit — an observer of stopped==true is
// therefore synchronized with every absorber write and may read shard
// state directly (see park). Queries keep working that way; further
// ingest is discarded (the relation is detached or its engine closed).
func (g *ingester) stop() {
	if g.stopped.Load() {
		return
	}
	g.flushAllSlots(true)
	g.sendMu.Lock()
	g.closing = true
	g.sendMu.Unlock()
	for _, ch := range g.chans {
		close(ch)
	}
	g.absWg.Wait()
	if g.logCh != nil {
		close(g.logCh)
		g.logWg.Wait()
	}
	g.stopped.Store(true)
}

// park flushes every staging slot and parks each absorber at one
// barrier. On return everything staged before the call is applied and no
// absorber runs until release is called, so the caller owns the shard
// state: cut reads it, absorbBundle writes it. Once the pipeline has
// stopped the shards are quiet for good, so park waits for stop to finish
// and returns a no-op release with live false — the live read and the
// post-stop read are the same code.
func (g *ingester) park() (release func(), live bool) {
	if g.flushAllSlots(false) {
		// The write lock covers the whole send, so every shard channel
		// sees concurrent parkers in the same order: no parker can hold an
		// absorber that another parker is waiting for. A send under it
		// blocks only until the absorber drains its channel, and an
		// absorber waits only on an earlier parker, whose sends are done
		// and whose release needs no lock.
		g.sendMu.Lock()
		if !g.closing {
			var arrived sync.WaitGroup
			arrived.Add(len(g.chans))
			b := &absBarrier{wg: &arrived, park: make(chan struct{})}
			for _, ch := range g.chans {
				ch <- shardMsg{barrier: b}
			}
			g.sendMu.Unlock()
			arrived.Wait()
			return func() { close(b.park) }, true
		}
		g.sendMu.Unlock()
	}
	g.waitStopped()
	return func() {}, false
}

// cut is the one read of a relation: its shards at a single park, merged
// into one bundle, so the signature, sketch, chain section, heavy
// hitters, Rows and Seq all describe the same op prefix. With synopses
// unset only Rows and Seq are read (the stat probe). A non-zero flip
// makes the cut the checkpoint's epoch fence: in the same park every
// shard moves onto log epoch flip, and the trailing log barrier waits for
// the writer to consume every op applied before it — so the retiring
// epoch's segments hold exactly the ops the cut covers. Writers never
// block beyond channel backpressure. live is false when the pipeline had
// stopped; the read is then still exact, but nothing flips.
func (g *ingester) cut(synopses bool, flip uint64) (b RelationBundle, live bool) {
	if synopses {
		// Built before parking: the absorbers wait only for the merge.
		b = g.r.emptyCut()
	}
	release, live := g.park()
	g.r.read(&b)
	if live && flip != 0 {
		// The absorbers read shardEpochs only after release, which orders
		// these writes before their next apply.
		for i := range g.shardEpochs {
			g.shardEpochs[i] = flip
		}
	}
	release()
	if live && flip != 0 {
		g.logBarrier()
	}
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
