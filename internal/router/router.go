package router

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
	"sync"
	"time"

	"amstrack/internal/amsd"
	"amstrack/internal/coord"
	"amstrack/internal/engine"
	"amstrack/internal/wire"
	"amstrack/internal/xrand"
)

// Options configures a Router. Nodes is required; everything else has a
// sane default.
type Options struct {
	// Nodes are the amsd nodes' HTTP base URLs ("http://host:port").
	// They are the ring members; order does not matter.
	Nodes []string
	// VNodes is the virtual-node count per member (DefaultVNodes if 0).
	VNodes int
	// QueueDepth is each node's amswire ack window: the sub-batches sent
	// to the node and not yet acked (default 128). It is the node's only
	// queue. A full window blocks the producer — honest backpressure,
	// surfaced upstream as a stalled HTTP request or an unread wire
	// stream, never a silently growing buffer.
	QueueDepth int
	// AckTimeout is how long a wire session with batches pending waits
	// for ACK progress before declaring the node unresponsive and
	// failing over (wire.DefaultAckTimeout if 0). The deadline is armed
	// when a batch is sent to an idle session.
	AckTimeout time.Duration
	// ProbeInterval paces the health prober (jittered per tick).
	ProbeInterval time.Duration
	// FailoverBudget caps how many times one batch may be re-routed
	// before its failure is surfaced upstream as a sticky error.
	FailoverBudget int
	// Client issues node HTTP requests: the /healthz probe, and the
	// single-attempt stats of a teardown reconcile and of the ingest
	// response's fleet Len. Rows never travel
	// over HTTP — amswire is the only data path. A shared keep-alive
	// client with a 30 s Timeout if nil — never http.DefaultClient, whose
	// zero Timeout would let one wedged node pin a prober goroutine
	// forever.
	Client *http.Client
	// Fetcher drives the control-plane verbs (schemas, defines, stats,
	// bundles, rebalance). Built from Client with modest retries if nil.
	Fetcher *coord.Fetcher

	// downAfter is the test seam for the consecutive-failure count that
	// demotes a node from suspect to down; 0 means 3.
	downAfter int
}

func (o Options) withDefaults() Options {
	if o.VNodes <= 0 {
		o.VNodes = DefaultVNodes
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 128
	}
	if o.AckTimeout <= 0 {
		o.AckTimeout = wire.DefaultAckTimeout
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	if o.downAfter <= 0 {
		o.downAfter = 3
	}
	if o.FailoverBudget <= 0 {
		o.FailoverBudget = 4
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	}
	if o.Fetcher == nil {
		o.Fetcher = coord.NewFetcher(o.Client, 2, 50*time.Millisecond)
	}
	return o
}

// Health states of one node, in degradation order.
type NodeState int

const (
	// StateHealthy routes. A fresh router starts every node here and
	// lets the first probe or delivery correct it.
	StateHealthy NodeState = iota
	// StateSuspect stops routing NEW work to the node but keeps probing
	// it; one successful probe restores healthy — unless the node owes a
	// rejoin audit (work it might hold was failed over elsewhere), in
	// which case the audit gates the way back exactly as from down.
	// Suspect is cheap to enter (a single failed delivery) because under
	// linearity moving a node's arcs to its neighbors changes nothing
	// but load.
	StateSuspect
	// StateDown is suspect after three consecutive failures. A down
	// node always passes through the rejoin audit (recovered Seq ==
	// router's acked ledger, per relation) before it routes again.
	StateDown
	// StateQuarantined is the audit-failed terminal state: the node's
	// recovered state disagrees with the acked ledger, so routing to it
	// — or trusting its bundles — risks double-counted rows. Only an
	// operator Forget (accepting the node's state as a new baseline)
	// clears it.
	StateQuarantined
)

func (s NodeState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateSuspect:
		return "suspect"
	case StateDown:
		return "down"
	case StateQuarantined:
		return "quarantined"
	}
	return fmt.Sprintf("NodeState(%d)", int(s))
}

// node is the router's per-member state: health, and the live wire
// session if one is up, whose ack window is the node's only queue.
type node struct {
	base string // HTTP base URL; the ring member name
	// dial serializes session dials: routes that find no session wait
	// here and share the one the first of them opens.
	dial sync.Mutex

	// Guarded by Router.mu.
	state   NodeState
	fails   int
	lastErr string
	reasons []string // quarantine reasons
	// needsAudit is set whenever the router disposes of work the node
	// might still hold — a session torn down with pending batches — and
	// cleared only by a passed rejoin audit. While set, NO path
	// (probe success, late ack) may restore the node to healthy without
	// the audit: a node that crashes and answers /healthz again within a
	// couple of probe cycles is exactly as dangerous as one that was
	// down for an hour.
	needsAudit bool
	// reconciling holds the node quiescent while a teardown's reconcile
	// reads its stats: probes skip it and it is not alive for routing,
	// so no new session can stage un-acked batches that would inflate
	// the computed surplus and wrongly promote old pending work.
	reconciling bool
	draining    bool
	sess        *wire.Stream[*subBatch] // nil when no wire session is up
}

// acct is the router's acked ledger for one (node, relation): base is
// the relation's Seq when the router first took responsibility for
// routing to the node, acked counts row-ops acknowledged since. The
// rejoin audit's whole question is "does the node's recovered Seq equal
// base+acked" — equality proves the node holds exactly the acked
// stream, so failing over everything un-acked was exact.
type acct struct {
	base  uint64
	acked uint64
}

// relState is one logical relation as the router sees it. It doubles as
// the wire.SinkRelation handed to the upstream wire server.
type relState struct {
	r      *Router
	name   string
	arity  int
	schema engine.Schema // the members' schema, normalized

	// Guarded by Router.mu.
	inflight int   // subBatches routed, not yet acked or failed
	sticky   error // first terminal failure; poisons the relation upstream
	accts    map[string]*acct
}

// subBatch is the router's unit of delivery, ack, and failover: one
// relation, one op kind, rows all owned by the node it is sent to.
// vals is owned by the batch (copied out of the caller's buffer).
type subBatch struct {
	rel      *relState
	del      bool
	vals     []uint64 // row-major, rel.arity values per row
	attempts int      // failover hops consumed
}

func (sb *subBatch) rowCount() int { return len(sb.vals) / sb.rel.arity }

// Router is the partitioned-ingest tier core: ring + health + sessions
// + the acked ledger. One Router serves both upstream surfaces (its
// wire.Sink and its HTTP handler) and owns the node sessions.
type Router struct {
	opts Options
	ring *Ring
	// once reads stats in a single attempt: a teardown reconciles against
	// a node that just failed, so a retry-backoff budget per relation
	// would stall failover for seconds.
	once    *coord.Fetcher
	maxBody int64 // upstream request-body cap (0: amsd.DefaultMaxBody)

	mu    sync.Mutex
	cond  *sync.Cond // broadcast on ack / failure / health transitions
	nodes map[string]*node
	rels  map[string]*relState
	stop  chan struct{}
	done  sync.WaitGroup
	rng   *xrand.Rand // jitter; guarded by mu

	closed bool
}

// New builds a router over the given nodes and starts its health
// prober. Callers must Close it.
func New(opts Options) (*Router, error) {
	opts = opts.withDefaults()
	if len(opts.Nodes) == 0 {
		return nil, errors.New("router: no nodes configured")
	}
	r := &Router{
		opts:  opts,
		ring:  NewRing(opts.Nodes, opts.VNodes),
		once:  coord.NewFetcher(opts.Client, 1, 0),
		nodes: map[string]*node{},
		rels:  map[string]*relState{},
		stop:  make(chan struct{}),
		rng:   xrand.New(xrand.Seed()),
	}
	r.cond = sync.NewCond(&r.mu)
	for _, base := range r.ring.Members() {
		r.nodes[base] = &node{base: base}
	}
	r.done.Add(1)
	go r.runProber()
	return r, nil
}

// Close tears down sessions, stops the prober, and fails any batches
// still in flight (their relations go sticky, so an upstream Flush
// caller sees an error rather than a hang): a closed session hands its
// un-acked batches to teardown, and failover fails what it is handed
// once the router is closed.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	close(r.stop)
	for _, n := range r.nodes {
		if n.sess != nil {
			n.sess.Close()
		}
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	r.done.Wait()
	return nil
}

// aliveLocked reports whether a member currently accepts routed work.
func (r *Router) aliveLocked(member string) bool {
	n := r.nodes[member]
	return n != nil && n.state == StateHealthy && !n.draining && !n.reconciling
}

// liveCountLocked counts routable members.
func (r *Router) liveCountLocked() int {
	c := 0
	for m := range r.nodes {
		if r.aliveLocked(m) {
			c++
		}
	}
	return c
}

// markFailureLocked records one delivery/probe failure against a node.
func (r *Router) markFailureLocked(n *node, err error) {
	if n.state == StateQuarantined {
		return
	}
	n.fails++
	n.lastErr = err.Error()
	if n.fails >= r.opts.downAfter {
		n.state = StateDown
	} else if n.state == StateHealthy {
		n.state = StateSuspect
	}
	r.cond.Broadcast()
}

// markHealthyLocked restores a node to routing after a successful probe
// (suspect) or a passed rejoin audit (down).
func (r *Router) markHealthyLocked(n *node) {
	n.fails = 0
	n.lastErr = ""
	n.state = StateHealthy
	r.cond.Broadcast()
}

// quarantineLocked pins a node in the audit-failed state.
func (r *Router) quarantineLocked(n *node, reason string) {
	n.state = StateQuarantined
	n.reasons = append(n.reasons, reason)
	if n.sess != nil {
		n.sess.Close()
		n.sess = nil
	}
	r.cond.Broadcast()
}

// Relation resolves (or lazily adopts) a logical relation. If the
// router has not seen the name, it adopts the schema the members hold,
// replays the define onto any member missing it, and seeds the acked
// ledger from each member's current Seq — from that point on the
// router's ledger and the fleet move in lockstep.
func (r *Router) Relation(name string) (*relState, error) {
	r.mu.Lock()
	if rs, ok := r.rels[name]; ok {
		r.mu.Unlock()
		return rs, nil
	}
	r.mu.Unlock()
	return r.adoptRelation(name, nil)
}

// Define defines a relation across the whole fleet (tolerating members
// that already hold it with the same schema) and registers it with the
// router. All members must be reachable: defining into a
// partially-visible fleet would leave the ledger blind on the missing
// members. A malformed schema fails before any member is contacted.
func (r *Router) Define(sc coord.Schema) error {
	schema, err := sc.Request().Normalize()
	if err != nil {
		return err
	}
	_, err = r.adoptRelation(sc.Relation, &schema)
	return err
}

// adoptRelation ensures every member holds the relation and seeds the
// per-member ledger. want is the schema a define asks for; nil adopts
// the schema the members hold (ErrNotFound when none does). A member
// holding the relation with another schema fails the adopt with
// engine.ErrAlreadyDefined, and since every member is checked before any
// is defined, the fleet and the router stay as they were. A schema is
// fetched only from a member whose stat shows the relation, so defining
// a new relation costs one stat and one define per member. Idempotent
// per name.
func (r *Router) adoptRelation(name string, want *engine.Schema) (*relState, error) {
	accts := make(map[string]*acct, len(r.ring.Members()))
	var missing []string
	for _, m := range r.ring.Members() {
		st, err := r.opts.Fetcher.FetchStat(m, name)
		switch {
		case errors.Is(err, coord.ErrNotFound):
			missing = append(missing, m)
		case err != nil:
			return nil, fmt.Errorf("stat %q on %s: %w", name, m, err)
		default:
			sc, err := r.opts.Fetcher.FetchSchema(m, name)
			if err != nil {
				return nil, fmt.Errorf("schema %q on %s: %w", name, m, err)
			}
			held, err := sc.Request().Normalize()
			if err != nil {
				return nil, fmt.Errorf("schema %q on %s: %w", name, m, err)
			}
			if want == nil {
				want = &held
			} else if !reflect.DeepEqual(held, *want) {
				return nil, fmt.Errorf("relation %q on %s has schema %+v: %w", name, m, sc, engine.ErrAlreadyDefined)
			}
		}
		accts[m] = &acct{base: st.Seq}
	}
	if want == nil {
		return nil, fmt.Errorf("relation %q: %w", name, coord.ErrNotFound)
	}
	for _, m := range missing {
		if err := r.opts.Fetcher.DefineRelation(m, amsd.NewSchemaBody(name, *want)); err != nil {
			return nil, fmt.Errorf("define %q on %s: %w", name, m, err)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if rs, ok := r.rels[name]; ok {
		return rs, nil // raced with a concurrent resolve; first one wins
	}
	rs := &relState{r: r, name: name, arity: len(want.Attrs), schema: *want, accts: accts}
	r.rels[name] = rs
	return rs, nil
}

// route partitions one upstream batch by each row's primary attribute
// (partition) and sends one subBatch per part into its node's session.
// vals is the caller's buffer and is copied. Blocking on a full ack
// window is the backpressure contract.
func (r *Router) route(rs *relState, del bool, vals []uint64) error {
	if len(vals) == 0 {
		return nil
	}
	if len(vals)%rs.arity != 0 {
		return fmt.Errorf("router: %d values is not a whole number of arity-%d rows", len(vals), rs.arity)
	}
	r.mu.Lock()
	if rs.sticky != nil {
		err := rs.sticky
		r.mu.Unlock()
		return err
	}
	parts, err := partition(r.ring, r.ring.mask(r.aliveLocked), rs.arity, vals)
	if err != nil {
		r.mu.Unlock()
		return err
	}
	// Each part's session is read with the partition, under one lock:
	// the owner was routable when both were read, so deliver takes no
	// lock on the happy path.
	sess := make([]*wire.Stream[*subBatch], len(parts))
	for i, p := range parts {
		sess[i] = r.nodes[p.owner].sess
	}
	rs.inflight += len(parts)
	r.mu.Unlock()

	for i, p := range parts {
		r.deliver(r.nodes[p.owner], &subBatch{rel: rs, del: del, vals: p.vals}, sess[i])
	}
	return nil
}

// maxPartVals caps the values in one sub-batch, far below the frame
// bound wire.MaxBatchVals (2,097,024). A stream re-arms its ACK deadline
// on each ACK that makes progress, and a node acks a sub-batch once it
// has applied it, so this cap bounds the work one AckTimeout covers:
// about 0.16 s at 2.4 µs per row, the slowest apply seen (under -race).
// A node that is slow but alive then keeps its session.
const maxPartVals = 1 << 16

// part is one subBatch's rows: all owned by one node, at most maxPartVals
// values.
type part struct {
	owner string
	vals  []uint64
}

// partition splits vals (row-major, arity values per row) by the ring
// owner of each row's first value under live, one alive snapshot indexed
// like ring.Members(), and cuts each owner's rows, in input order, into
// parts of at most maxPartVals values. Callers take live and partition
// under Router.mu.
func partition(ring *Ring, live []bool, arity int, vals []uint64) ([]part, error) {
	// Pass 1: each row's owner, and each owner's row count.
	owners := make([]int32, len(vals)/arity)
	counts := make([]int, len(ring.members))
	for i := range owners {
		m := ring.walk(KeyHash(vals[i*arity]), live)
		if m < 0 {
			return nil, errors.New("router: no live nodes")
		}
		owners[i] = int32(m)
		counts[m]++
	}
	// Pass 2: one buffer holds the owners' regions back to back, each
	// exactly its rows; at[m] is where owner m's next row goes.
	at := make([]int, len(counts))
	for m := 1; m < len(counts); m++ {
		at[m] = at[m-1] + counts[m-1]*arity
	}
	out := make([]uint64, len(vals))
	for i, m := range owners {
		for k := range arity {
			out[at[m]+k] = vals[i*arity+k]
		}
		at[m] += arity
	}
	// Each at[m] now ends owner m's region. Full slice expressions keep
	// a part from growing into the next.
	limit := maxPartVals - maxPartVals%arity
	parts := make([]part, 0, len(at))
	lo := 0
	for m, end := range at {
		for lo < end {
			hi := min(end, lo+limit)
			parts = append(parts, part{owner: ring.members[m], vals: out[lo:hi:hi]})
			lo = hi
		}
	}
	return parts, nil
}

// failover re-routes a failed (never acked) batch through the current
// live ring. Exactness argument (DESIGN.md §12): the batch was not
// acknowledged by the failed node's sink, and the reconcile/audit
// machinery guarantees the failed node will not silently keep a copy —
// so re-sending it elsewhere applies it exactly once, and under
// linearity WHERE it lands is irrelevant.
func (r *Router) failover(sb *subBatch, cause error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		// Close is waiting on r.done, so no goroutine may join it, and
		// every session is closed: there is nowhere left to send.
		r.failLocked(sb, fmt.Errorf("router closed: %w", cause))
		return
	}
	sb.attempts++
	if sb.attempts > r.opts.FailoverBudget {
		r.failLocked(sb, fmt.Errorf("failover budget (%d) exhausted: %w", r.opts.FailoverBudget, cause))
		return
	}
	parts, err := partition(r.ring, r.ring.mask(r.aliveLocked), sb.rel.arity, sb.vals)
	if err != nil {
		r.failLocked(sb, fmt.Errorf("%w (while failing over: %v)", err, cause))
		return
	}
	sb.rel.inflight += len(parts) - 1 // sb itself stays counted
	// Jittered pause between hops so a flapping fleet is retried gently,
	// not hammered (budget × pause bounds a batch's total retry cost).
	pause := time.Duration(sb.attempts) * 10 * time.Millisecond
	pause = pause/2 + time.Duration(r.rng.Uint64n(uint64(pause/2)+1))
	attempts := sb.attempts
	// Re-send from a goroutine of its own: failover runs on session read
	// loops, whose ACKs are what open a full window, and deliver blocks
	// while the target's window is full. After the pause it takes
	// deliver's checked path, so it reads each target's session afresh.
	// failover also runs on upstream goroutines that r.done does not
	// track; the closed check above, under r.mu, keeps this Add from
	// racing Close's Wait.
	r.done.Add(1)
	go func() {
		defer r.done.Done()
		select {
		case <-time.After(pause):
		case <-r.stop:
		}
		for _, p := range parts {
			r.deliver(r.nodes[p.owner], &subBatch{rel: sb.rel, del: sb.del, vals: p.vals, attempts: attempts}, nil)
		}
	}()
}

// failLocked records a terminal batch failure: the relation goes sticky
// (upstream sees an error, exactly the amswire contract) and the
// in-flight count drops so Flush waiters wake.
func (r *Router) failLocked(sb *subBatch, err error) {
	if sb.rel.sticky == nil {
		sb.rel.sticky = fmt.Errorf("relation %q: batch of %d rows lost: %w", sb.rel.name, sb.rowCount(), err)
	}
	sb.rel.inflight--
	r.cond.Broadcast()
}

// noteAcked credits acknowledged batches to the (node, relation)
// ledger under one lock: the batches one cumulative ACK covers, or one
// a reconcile promotes. Every acked row is one engine op, so the ledger
// unit matches Relation.Seq exactly.
func (r *Router) noteAcked(n *node, acked []*subBatch) {
	r.mu.Lock()
	for _, sb := range acked {
		if a := sb.rel.accts[n.base]; a != nil {
			a.acked += uint64(sb.rowCount())
		}
		sb.rel.inflight--
	}
	n.fails = 0
	// A late ack only vouches for the batches THIS stream delivered; it
	// says nothing about work a previous teardown failed over elsewhere,
	// so an audit-owing (or mid-reconcile) node stays out of the ring
	// until the ledger is re-verified.
	if n.state == StateSuspect && !n.needsAudit && !n.reconciling {
		n.state = StateHealthy
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// Flush is the read-your-writes barrier: it blocks until the relation
// has nothing in flight, returning the sticky error if routing failed
// terminally. Nodes ack every batch on their own, so Flush sends nothing.
func (r *Router) Flush(name string) error {
	r.mu.Lock()
	rs, ok := r.rels[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("router: unknown relation %q", name)
	}
	for rs.inflight > 0 && rs.sticky == nil && !r.closed {
		r.cond.Wait()
	}
	err := rs.sticky
	if err == nil && r.closed && rs.inflight > 0 {
		err = errors.New("router closed with batches in flight")
	}
	r.mu.Unlock()
	return err
}

// deliver sends one subBatch into its node's session, or fails it over.
// sess is the session route read with the partition; nil takes the
// checked path (session). Send blocks while the node's window is full.
func (r *Router) deliver(n *node, sb *subBatch, sess *wire.Stream[*subBatch]) {
	if sess == nil {
		var err error
		if sess, err = r.session(n); err != nil {
			r.failover(sb, err)
			return
		}
	}
	// A batch the session took comes back through its acks or its
	// teardown's reconcile; one it refused (it had ended) is still ours.
	// No FLUSH follows: the node acks every staged batch after one drain
	// round.
	if err := sess.Send(sb, sb.rel.name, sb.del, sb.rel.arity, sb.vals); err != nil {
		r.failover(sb, err)
	}
}

// session returns n's session, dialing one if it has none, provided the
// router is open and the node healthy and not draining. One dial per
// node at a time: callers that find no session wait on n.dial, and then
// share the session the first of them opened.
func (r *Router) session(n *node) (*wire.Stream[*subBatch], error) {
	n.dial.Lock()
	defer n.dial.Unlock()
	r.mu.Lock()
	closed, state, draining, sess := r.closed, n.state, n.draining, n.sess
	r.mu.Unlock()
	switch {
	case closed:
		return nil, errors.New("router closed")
	case state != StateHealthy || draining:
		return nil, fmt.Errorf("node %s is %v", n.base, state)
	case sess != nil:
		return sess, nil
	}
	sess, err := r.openSession(n)
	if err != nil {
		r.mu.Lock()
		r.markFailureLocked(n, err)
		r.mu.Unlock()
	}
	return sess, err
}

// runProber is the health loop: every (jittered) interval it probes
// non-healthy members, runs the rejoin audit on recovered down nodes,
// and demotes healthy members whose /healthz stops answering or goes
// degraded.
func (r *Router) runProber() {
	defer r.done.Done()
	for {
		r.mu.Lock()
		iv := r.opts.ProbeInterval
		iv = iv/2 + time.Duration(r.rng.Uint64n(uint64(iv/2)+1))
		r.mu.Unlock()
		select {
		case <-time.After(iv):
		case <-r.stop:
			return
		}
		r.probeOnce()
	}
}

// probeOnce sweeps every member once.
func (r *Router) probeOnce() {
	r.mu.Lock()
	members := make([]*node, 0, len(r.nodes))
	for _, n := range r.nodes {
		members = append(members, n)
	}
	r.mu.Unlock()

	for _, n := range members {
		r.mu.Lock()
		skip := n.state == StateQuarantined || n.draining || n.reconciling
		r.mu.Unlock()
		if skip {
			continue
		}
		_, err := r.probeNode(n)
		r.mu.Lock()
		switch {
		case err != nil:
			r.markFailureLocked(n, err)
			r.mu.Unlock()
		case n.state == StateQuarantined || n.draining || n.reconciling:
			// Changed under us while the probe was in flight; a teardown's
			// reconcile (or an operator drain) owns the node now.
			r.mu.Unlock()
		case n.state == StateDown || n.needsAudit:
			// Any rejoin with unverified failed-over work passes through
			// the audit — not just recovery from down. A node that crashed
			// and answered /healthz again within three probe cycles is
			// only suspect, but its recovered oplog may hold the very ops
			// the router failed over elsewhere.
			r.mu.Unlock()
			r.rejoinAudit(n)
		default:
			r.markHealthyLocked(n)
			r.mu.Unlock()
		}
	}
}

// probeNode is the router's one /healthz reader: it returns the node's
// advertised amswire address. A "degraded" status counts as a failure:
// it means the node has a sticky durability error, so acks it hands out
// may not survive a crash — routing to it would trade honest
// backpressure for silent risk. So does a node without a wire listener:
// amswire is the only data path, so such a member is refused here and
// never routed to.
func (r *Router) probeNode(n *node) (string, error) {
	resp, err := r.opts.Client.Get(n.base + "/healthz")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("node %s healthz: HTTP %d", n.base, resp.StatusCode)
	}
	var body amsd.HealthzBody
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body); err != nil {
		return "", fmt.Errorf("node %s healthz: %w", n.base, err)
	}
	switch {
	case body.Status != "ok":
		return "", fmt.Errorf("node %s reports status %q", n.base, body.Status)
	case body.Wire == nil || body.Wire.Addr == "":
		return "", fmt.Errorf("node %s advertises no wire listener", n.base)
	}
	return body.Wire.Addr, nil
}

// rejoinAudit decides whether a recovered down node may route again.
// For every relation the router has routed to it, the node's recovered
// Seq must equal the ledger's base+acked: equality proves the node
// holds exactly the acknowledged stream (un-acked work the router
// failed over elsewhere is NOT hiding in its oplog), so rejoining
// cannot double-count a row. Any mismatch quarantines the node with the
// exact surplus/deficit — the operator decides, the router never
// guesses.
func (r *Router) rejoinAudit(n *node) {
	r.mu.Lock()
	type check struct {
		rel      string
		expected uint64
	}
	var checks []check
	for name, rs := range r.rels {
		if a, ok := rs.accts[n.base]; ok {
			checks = append(checks, check{name, a.base + a.acked})
		}
	}
	r.mu.Unlock()
	sort.Slice(checks, func(i, j int) bool { return checks[i].rel < checks[j].rel })

	for _, c := range checks {
		st, err := r.opts.Fetcher.FetchStat(n.base, c.rel)
		if err != nil {
			r.mu.Lock()
			r.markFailureLocked(n, fmt.Errorf("rejoin audit stat %q: %w", c.rel, err))
			r.mu.Unlock()
			return
		}
		if st.Seq != c.expected {
			r.mu.Lock()
			r.quarantineLocked(n, fmt.Sprintf(
				"rejoin refused: relation %q recovered seq %d, acked ledger expects %d (surplus of %d ops would double-count if merged)",
				c.rel, st.Seq, c.expected, int64(st.Seq)-int64(c.expected)))
			r.mu.Unlock()
			return
		}
	}
	r.mu.Lock()
	if n.reconciling || n.state == StateQuarantined {
		// A teardown's reconcile took the node over (or quarantined it)
		// while our stats were in flight; its verdict wins and a later
		// probe re-audits.
		r.mu.Unlock()
		return
	}
	n.needsAudit = false
	r.markHealthyLocked(n)
	r.mu.Unlock()
}

// Forget clears a node's quarantine by accepting its current state as
// the new ledger baseline: every relation's base is re-read from the
// node and acked resets to zero. The operator is asserting "I have
// verified (or accept) the node's contents"; the router records it and
// moves on.
func (r *Router) Forget(member string) error {
	r.mu.Lock()
	n := r.nodes[member]
	r.mu.Unlock()
	if n == nil {
		return fmt.Errorf("router: unknown node %q", member)
	}
	r.mu.Lock()
	rels := make([]*relState, 0, len(r.rels))
	for _, rs := range r.rels {
		rels = append(rels, rs)
	}
	r.mu.Unlock()
	for _, rs := range rels {
		st, err := r.opts.Fetcher.FetchStat(member, rs.name)
		if err != nil && !errors.Is(err, coord.ErrNotFound) {
			return fmt.Errorf("forget %s: stat %q: %w", member, rs.name, err)
		}
		r.mu.Lock()
		if errors.Is(err, coord.ErrNotFound) {
			delete(rs.accts, member)
		} else {
			rs.accts[member] = &acct{base: st.Seq}
		}
		r.mu.Unlock()
	}
	r.mu.Lock()
	n.reasons = nil
	n.state = StateDown // must still pass a probe before routing
	n.fails = r.opts.downAfter
	r.mu.Unlock()
	return nil
}

// NodeHealth is one member's externally visible state.
type NodeHealth struct {
	Node    string   `json:"node"`
	State   string   `json:"state"`
	Fails   int      `json:"fails,omitempty"`
	LastErr string   `json:"last_error,omitempty"`
	Reasons []string `json:"quarantine_reasons,omitempty"`
	Queue   int      `json:"queue_depth"` // sub-batches sent, not yet acked
	Wire    bool     `json:"wire_session"`
	// Audit reports that the node owes a rejoin audit before it may
	// route again, regardless of its probe state.
	Audit bool `json:"needs_audit,omitempty"`
}

// Health snapshots every member, sorted by name.
func (r *Router) Health() []NodeHealth {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]NodeHealth, 0, len(r.nodes))
	for _, m := range r.ring.Members() {
		n := r.nodes[m]
		queue := 0
		if n.sess != nil {
			queue = n.sess.Pending()
		}
		out = append(out, NodeHealth{
			Node: m, State: n.state.String(), Fails: n.fails, LastErr: n.lastErr,
			Reasons: append([]string(nil), n.reasons...),
			Queue:   queue, Wire: n.sess != nil, Audit: n.needsAudit,
		})
	}
	return out
}

// Ring exposes the ring for tests and the debug endpoint.
func (r *Router) Ring() *Ring { return r.ring }
