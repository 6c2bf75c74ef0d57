// The engine's write path: a lock-free buffer-and-absorb pipeline.
//
// The AGMS synopses are LINEAR in the frequency vector, so updates
// commute — nothing about the math requires per-op locks or a
// synchronous oplog append. This file exploits that freedom with a
// buffer-and-absorb pipeline:
//
//	caller ──stage──▶ CAS-claimed staging slot (no mutexes)
//	                    │ slot full / drain
//	                    ▼ group by shard
//	        per-shard channel ──▶ absorber goroutine (single writer,
//	                    │          applies to its sigShard with NO lock)
//	                    ▼ applied ops
//	        log channel ──▶ group-commit writer (AppendGroup, flushed
//	                         on FlushOps records or FlushInterval)
//
// Callers pick a staging slot from a hint derived from their own stack
// address (goroutine-affine, zero shared state) and claim it with one
// compare-and-swap: the per-op cost is a CAS, an append, and a release
// store. Skewed workloads cannot re-concentrate contention the way they
// do on value-hashed shard locks, because slot choice depends on the
// WRITER, not the value.
//
// Single-writer discipline: after newIngester returns, a shard's
// signature is written exclusively by its absorber goroutine. Every
// other access rides one of three synchronization shapes —
//
//	drain    flush all slots, then a barrier message through every
//	         shard channel and the log channel: everything staged
//	         before the call is applied and handed to the OS. The
//	         read-your-writes barrier of queries.
//	visit    drain whose barrier runs a callback ON the absorber
//	         goroutine (snapshots, Len) — reads happen on the single
//	         writer, so no lock is ever needed.
//	pause    claim and HOLD every staging slot, then drain: no new op
//	         can enter until resume, so counters ≡ log exactly. The
//	         quiescence point of bundle merges, serialized by the
//	         engine mutex. (Checkpoints never pause: they cut an
//	         epoch fence through the absorbers, see fence.)
//
// Validity note: per-value op order can transiently reorder across slot
// migrations (a goroutine's earlier op staged in another slot), so a
// delete may reach a counter before its insert. By linearity the final
// counters are unaffected, and none of the engine's synopses error on
// transient negatives — deletions are pure counter subtraction.
package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"amstrack/internal/core"
	"amstrack/internal/join"
	"amstrack/internal/oplog"
	"amstrack/internal/stream"
	"amstrack/internal/xrand"
)

// stagedOp is one buffered ingest operation. v is the primary attribute
// (the shard-routing key); rest points at the remaining attributes of a
// multi-attribute tuple, nil on the arity-1 hot path. A pointer rather
// than a slice keeps the struct at 24 bytes — the staging buffers and
// shard channels copy these by value, and the arity-1 path is the
// benchmarked hot path.
type stagedOp struct {
	v    uint64
	rest *[]uint64
	del  bool
}

// tail returns the attribute payload ([] for arity-1 ops).
func (op stagedOp) tail() []uint64 {
	if op.rest == nil {
		return nil
	}
	return *op.rest
}

// stageSlot is one CAS-claimed staging buffer. The claim covers both the
// buffer and the right to send on the shard channels, which is what lets
// pause() turn "hold every slot" into full write quiescence.
type stageSlot struct {
	claimed atomic.Bool
	_       [63]byte // keep hot claim words on distinct cache lines
	buf     []stagedOp
	_       [40]byte
}

// shardMsg is one message to an absorber: a batch of ops for its shard,
// or a barrier.
type shardMsg struct {
	ops     []stagedOp
	barrier *absBarrier
}

// absBarrier synchronizes with the absorbers; visit (optional) runs on
// each absorber goroutine — the only legal way to read shard state while
// the relation is live.
type absBarrier struct {
	wg    *sync.WaitGroup
	visit func(shard int, sh *sigShard)
}

// logMsg is one message to the group-commit log writer: applied ops to
// append, or a flush barrier. epoch is the log epoch the sending shard
// was on when it applied the ops — during a checkpoint's fence window it
// routes the append between the retiring and the forked log.
type logMsg struct {
	ops     []stagedOp
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
	// under the write lock before close. Never touched on the per-op path.
	sendMu  sync.RWMutex
	closing bool
	// stopped is set only after every pipeline goroutine has exited; an
	// observer of true is synchronized with all absorber writes.
	stopped atomic.Bool
	// shardEpochs[i] is the log epoch shard i currently applies under.
	// Written only inside a fence's barrier visit (ON the absorber
	// goroutine) and read only by the same goroutine's absorb loop, so no
	// atomics: the shard channel orders the two.
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

// claimSlot spins until it owns the specific slot (drain and pause);
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

// stage buffers one op; the caller path is CAS + append + release store.
// rest (already owned by the ingester — callers copy) points at the
// non-primary attributes of a tuple op, nil on the arity-1 hot path.
// Ops staged against a stopped ingester (relation dropped, engine
// closed) are discarded.
func (g *ingester) stage(v uint64, rest *[]uint64, del bool) {
	s := g.claim()
	if s == nil {
		return
	}
	if s.buf == nil {
		s.buf = make([]stagedOp, 0, g.r.eng.opts.StageOps)
	}
	s.buf = append(s.buf, stagedOp{v: v, rest: rest, del: del})
	if len(s.buf) == cap(s.buf) {
		g.flushSlot(s)
	}
	s.claimed.Store(false)
}

// stageBatch routes a whole batch straight to the absorbers. The slot
// claim is held only as the quiescence token — batches never copy
// through the buffer.
func (g *ingester) stageBatch(vs []uint64, del bool) {
	if len(vs) == 0 {
		return
	}
	s := g.claim()
	if s == nil {
		return
	}
	ops := make([]stagedOp, len(vs))
	for i, v := range vs {
		ops[i] = stagedOp{v: v, del: del}
	}
	g.sendOps(ops, false)
	s.claimed.Store(false)
}

// stageTupleBatch is stageBatch for multi-attribute rows. Rows are
// copied (the staged ops outlive the call), so callers may reuse them.
func (g *ingester) stageTupleBatch(rows [][]uint64, del bool) {
	if len(rows) == 0 {
		return
	}
	s := g.claim()
	if s == nil {
		return
	}
	tails := make([][]uint64, len(rows))
	ops := make([]stagedOp, len(rows))
	for i, row := range rows {
		tails[i] = append([]uint64(nil), row[1:]...)
		ops[i] = stagedOp{v: row[0], rest: &tails[i], del: del}
	}
	g.sendOps(ops, false)
	s.claimed.Store(false)
}

// flushSlot hands a claimed slot's buffered ops to the absorbers and
// resets the buffer for reuse. Caller holds the claim.
func (g *ingester) flushSlot(s *stageSlot) {
	if len(s.buf) == 0 {
		return
	}
	g.sendOps(s.buf, true)
	s.buf = s.buf[:0]
}

// sendOps groups a batch by shard and enqueues it on the absorber
// channels. The caller must hold a slot claim (the quiescence token that
// keeps pause/stop out while sends are in flight). With copy set the
// input is reused afterwards, so even the single-shard fast path copies.
func (g *ingester) sendOps(ops []stagedOp, copyOps bool) {
	if len(g.chans) == 1 {
		if copyOps {
			ops = append([]stagedOp(nil), ops...)
		}
		g.chans[0] <- shardMsg{ops: ops}
		return
	}
	hint := len(ops)/len(g.chans) + len(ops)/8 + 4
	groups := make([][]stagedOp, len(g.chans))
	for _, op := range ops {
		i := xrand.Mix64(op.v) & g.r.mask
		if groups[i] == nil {
			groups[i] = make([]stagedOp, 0, hint)
		}
		groups[i] = append(groups[i], op)
	}
	for i, grp := range groups {
		if len(grp) > 0 {
			g.chans[i] <- shardMsg{ops: grp}
		}
	}
}

// flushAllSlots claims every slot in turn and flushes it; with hold the
// claims are kept (pause), otherwise each is released immediately.
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
// signature, so no lock is taken around counter updates. Sketch updates
// are pinned to the matching sketch shard (ShardInsertBatch — any
// assignment is valid by linearity, and the merged counters that every
// query and checkpoint reads equal a plain sequential sketch's), so each
// absorber pays one uncontended lock per batch.
func (g *ingester) absorb(shard int) {
	defer g.absWg.Done()
	sh := &g.r.shards[shard]
	ins := make([]uint64, 0, g.r.eng.opts.StageOps)
	del := make([]uint64, 0, g.r.eng.opts.StageOps)
	cols := newChainCols(g.r.arity)
	for msg := range g.chans[shard] {
		if msg.barrier != nil {
			if msg.barrier.visit != nil {
				msg.barrier.visit(shard, sh)
			}
			msg.barrier.wg.Done()
			continue
		}
		ins, del = ins[:0], del[:0]
		for _, op := range msg.ops {
			if op.del {
				del = append(del, op.v)
			} else {
				ins = append(ins, op.v)
			}
		}
		if len(ins) > 0 {
			sh.sig.InsertBatch(ins)
			if g.r.sketch != nil {
				g.r.sketch.ShardInsertBatch(shard, ins)
			}
		}
		if len(del) > 0 {
			// Engine synopses never error on deletes (pure linearity).
			_ = sh.sig.DeleteBatch(del)
			if g.r.sketch != nil {
				g.r.sketch.ShardDeleteBatch(shard, del)
			}
		}
		if sh.chain != nil {
			// Chain fan-out gathers the message's tuples into
			// per-attribute columns and applies each synopsis's share as
			// one batch; the absorber is the shard's single writer, so no
			// lock here either.
			cols.gather(msg.ops)
			sh.chain.apply(&g.r.plan, cols)
		}
		if sh.hh != nil {
			// Heavy-hitter updates are per-op in msg order — the table
			// is the one order-SENSITIVE synopsis, and the same msg.ops
			// slice is forwarded to the log writer below, so per-shard
			// apply order equals per-shard log order and replay
			// reconstructs the table bit-exactly.
			for _, op := range msg.ops {
				if op.del {
					sh.hh.Delete(op.v)
				} else {
					sh.hh.Insert(op.v)
				}
			}
		}
		sh.ops += uint64(len(msg.ops))
		if g.logCh != nil {
			g.logCh <- logMsg{ops: msg.ops, epoch: g.shardEpochs[shard]}
		}
	}
}

// logger is the group-commit oplog writer: ops applied by the absorbers
// accumulate in the oplog.Writer's buffer and are pushed to the OS when
// the flush policy comes due — FlushOps records, or FlushInterval after
// the oldest pending record, whichever first. Write errors go sticky on
// the relation's log and surface on Err, Drain, Sync, Checkpoint, and
// erroring caller-side ops.
func (g *ingester) logger() {
	defer g.logWg.Done()
	policy := oplog.FlushPolicy{
		MaxRecords: g.r.eng.opts.FlushOps,
		MaxDelay:   g.r.eng.opts.FlushInterval,
	}.Normalize()
	timer := time.NewTimer(policy.MaxDelay)
	timer.Stop()
	pending, armed := 0, false
	scratch := make([]stream.Op, 0, policy.MaxRecords)
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
			scratch = scratch[:0]
			for _, op := range m.ops {
				kind := stream.Insert
				if op.del {
					kind = stream.Delete
				}
				scratch = append(scratch, stream.Op{Kind: kind, Value: op.v, Rest: op.tail()})
			}
			g.r.log.appendGroupTagged(scratch, m.epoch)
			pending += len(scratch)
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

// barrier flushes nothing itself: it sends a barrier through every shard
// channel and waits. Per-channel FIFO means everything enqueued before
// the barrier is applied (and forwarded to the log writer) first. False
// means stop got there first — the caller must waitStopped and fall back
// to direct reads.
func (g *ingester) barrier(visit func(shard int, sh *sigShard)) bool {
	g.sendMu.RLock()
	if g.closing {
		g.sendMu.RUnlock()
		return false
	}
	var wg sync.WaitGroup
	wg.Add(len(g.chans))
	b := &absBarrier{wg: &wg, visit: visit}
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
	if !g.barrier(nil) {
		g.waitStopped()
		return
	}
	g.logBarrier()
}

// pause claims and holds every staging slot, then drains: on return no
// writer can make progress and counters ≡ log exactly. Callers MUST hold
// the engine mutex exclusively (bundle merge), which serializes pauses
// against each other and against stop; resume releases the slots.
func (g *ingester) pause() {
	if !g.flushAllSlots(true) {
		return
	}
	g.barrier(nil)
	g.logBarrier()
}

// resume releases the slots pause holds.
func (g *ingester) resume() {
	if g.stopped.Load() {
		return
	}
	for i := range g.slots {
		g.slots[i].claimed.Store(false)
	}
}

// stop drains and permanently shuts down the pipeline (Drop, Close,
// engine replacement; caller holds the engine mutex exclusively): staged
// ops are applied and logged, the goroutines exit, and the staging slots
// stay claimed forever so nothing new can enter. The stopped flag is set
// only AFTER the goroutines exit — an observer of stopped==true is
// therefore synchronized with every absorber write and may read shard
// state directly. Queries keep working that way; further ingest is
// discarded (the relation is detached or its engine closed).
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

// snapshotSig merges the shard signatures into one with read-your-writes
// semantics: drain, then per-shard copies taken ON the absorbers. After
// stop it falls back to direct reads (race-free, see stop).
func (g *ingester) snapshotSig() join.Signature {
	fresh := g.r.eng.newSignature()
	direct := func() join.Signature {
		g.waitStopped()
		for i := range g.r.shards {
			mustMerge(fresh, g.r.shards[i].sig)
		}
		return fresh
	}
	if !g.flushAllSlots(false) {
		return direct()
	}
	clones := make([]join.Signature, len(g.r.shards))
	if !g.barrier(func(shard int, sh *sigShard) {
		c := g.r.eng.newSignature()
		mustMerge(c, sh.sig)
		clones[shard] = c
	}) {
		return direct()
	}
	for _, c := range clones {
		mustMerge(fresh, c)
	}
	return fresh
}

// snapshotHH unions the per-shard heavy-hitter tables with the same
// drain + on-absorber clone discipline as snapshotSig. Callers check
// r.skims() first.
func (g *ingester) snapshotHH() *core.SpaceSaving {
	fresh := g.r.newRelHH()
	direct := func() *core.SpaceSaving {
		g.waitStopped()
		for i := range g.r.shards {
			fresh.MergeItems(g.r.shards[i].hh.Items())
		}
		return fresh
	}
	if !g.flushAllSlots(false) {
		return direct()
	}
	clones := make([][]core.Hitter, len(g.r.shards))
	if !g.barrier(func(shard int, sh *sigShard) {
		clones[shard] = sh.hh.Items()
	}) {
		return direct()
	}
	for _, c := range clones {
		fresh.MergeItems(c)
	}
	return fresh
}

// snapshotChain merges the shard chain sets with read-your-writes
// semantics, via the same drain + on-absorber clone barrier as
// snapshotSig. Nil when the schema declares no chain synopses.
func (g *ingester) snapshotChain() *shardChain {
	if !g.r.schema.hasChain() {
		return nil
	}
	fresh := g.r.newEmptyChain()
	direct := func() *shardChain {
		g.waitStopped()
		for i := range g.r.shards {
			fresh.merge(g.r.shards[i].chain)
		}
		return fresh
	}
	if !g.flushAllSlots(false) {
		return direct()
	}
	clones := make([]*shardChain, len(g.r.shards))
	if !g.barrier(func(shard int, sh *sigShard) {
		c := g.r.newEmptyChain()
		c.merge(sh.chain)
		clones[shard] = c
	}) {
		return direct()
	}
	for _, c := range clones {
		fresh.merge(c)
	}
	return fresh
}

// relSnap is one relation's epoch-consistent checkpoint snapshot, cut by
// fence: the merge of the per-shard clones taken behind the epoch flip.
type relSnap struct {
	sig    join.Signature
	sketch *core.FastTugOfWar // nil when the engine runs without sketches
	chain  *shardChain        // nil when the schema declares no chains
	hh     *core.SpaceSaving  // nil unless the relation skims
	seq    uint64             // op-sequence counter at the same cut
}

// fence cuts a consistent snapshot of every synopsis WITHOUT pausing
// ingest — the pause-free checkpoint's core. One barrier sweep runs on
// each absorber goroutine (the shard's single writer): it clones the
// shard's signature, chain set, and sketch shard, and in the same visit
// flips the shard onto newEpoch, so every op the shard applies afterwards
// is tagged with the new epoch and group-committed to the pre-forked
// next-epoch log. Ops applied before the flip were forwarded to the log
// channel first (per-channel FIFO), and the trailing logBarrier waits for
// the writer to consume them — so when fence returns, the retiring
// epoch's segments hold EXACTLY the ops the snapshot covers, and the log
// can be promoted. Writers never block beyond channel backpressure.
func (g *ingester) fence(newEpoch uint64) (relSnap, error) {
	stopErr := errors.New("engine: ingest pipeline stopped during checkpoint fence")
	if !g.flushAllSlots(false) {
		return relSnap{}, stopErr
	}
	n := len(g.r.shards)
	sigs := make([]join.Signature, n)
	chains := make([]*shardChain, n)
	sketches := make([]*core.FastTugOfWar, n)
	hhs := make([][]core.Hitter, n)
	seqs := make([]uint64, n)
	errs := make([]error, n)
	if !g.barrier(func(shard int, sh *sigShard) {
		c := g.r.eng.newSignature()
		mustMerge(c, sh.sig)
		sigs[shard] = c
		if sh.chain != nil {
			cc := g.r.newEmptyChain()
			cc.merge(sh.chain)
			chains[shard] = cc
		}
		if sh.hh != nil {
			hhs[shard] = sh.hh.Items()
		}
		if g.r.sketch != nil {
			sketches[shard], errs[shard] = g.r.sketch.ShardSnapshot(shard)
		}
		// The op counter rides the same cut: every op this shard applies
		// after the flip is excluded here and present in the next epoch's
		// log, so checkpoint (seq, synopses) stay mutually exact.
		seqs[shard] = sh.ops
		g.shardEpochs[shard] = newEpoch
	}) {
		return relSnap{}, stopErr
	}
	g.logBarrier()
	for _, err := range errs {
		if err != nil {
			return relSnap{}, err
		}
	}
	snap := relSnap{sig: g.r.eng.newSignature()}
	for _, c := range sigs {
		mustMerge(snap.sig, c)
	}
	for _, s := range seqs {
		snap.seq += s
	}
	if g.r.schema.hasChain() {
		snap.chain = g.r.newEmptyChain()
		for _, c := range chains {
			snap.chain.merge(c)
		}
	}
	if g.r.sketch != nil {
		snap.sketch = sketches[0]
		for _, sk := range sketches[1:] {
			if err := snap.sketch.Merge(sk); err != nil {
				return relSnap{}, err
			}
		}
	}
	if g.r.skims() {
		// Per-shard tables hold disjoint key sets (shardOf is a pure
		// function of the value), so this union is exact, never lossy.
		snap.hh = g.r.newRelHH()
		for _, items := range hhs {
			snap.hh.MergeItems(items)
		}
	}
	return snap, nil
}

// mustMerge merges same-family signatures; a mismatch is an engine
// invariant violation, not an input error.
func mustMerge(dst, src join.Signature) {
	if err := dst.Merge(src); err != nil {
		panic(fmt.Sprintf("engine: shard snapshot: %v", err))
	}
}

// len sums the shard tuple counts behind a drain barrier. With
// logBarrier set it is a FULL drain (ops also pushed through the log
// writer) — the one-sweep combination serving layers use to answer an
// ingest with read-your-writes Len plus prompt error visibility.
func (g *ingester) len(logBarrier bool) int64 {
	var n int64
	direct := func() int64 {
		g.waitStopped()
		n = 0
		for i := range g.r.shards {
			n += g.r.shards[i].sig.Len()
		}
		return n
	}
	if !g.flushAllSlots(false) {
		return direct()
	}
	lens := make([]int64, len(g.r.shards))
	if !g.barrier(func(shard int, sh *sigShard) {
		lens[shard] = sh.sig.Len()
	}) {
		return direct()
	}
	if logBarrier {
		g.logBarrier()
	}
	for _, l := range lens {
		n += l
	}
	return n
}

// stat reads (Seq, Len) behind one drain barrier — the freshness pair
// the stat endpoint serves. After stop it falls back to direct reads.
func (g *ingester) stat() (uint64, int64) {
	var seq uint64
	var rows int64
	direct := func() (uint64, int64) {
		g.waitStopped()
		seq, rows = 0, 0
		for i := range g.r.shards {
			seq += g.r.shards[i].ops
			rows += g.r.shards[i].sig.Len()
		}
		return seq, rows
	}
	if !g.flushAllSlots(false) {
		return direct()
	}
	seqs := make([]uint64, len(g.r.shards))
	lens := make([]int64, len(g.r.shards))
	if !g.barrier(func(shard int, sh *sigShard) {
		seqs[shard] = sh.ops
		lens[shard] = sh.sig.Len()
	}) {
		return direct()
	}
	for i := range seqs {
		seq += seqs[i]
		rows += lens[i]
	}
	return seq, rows
}
