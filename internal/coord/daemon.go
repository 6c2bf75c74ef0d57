package coord

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"amstrack/internal/amsd"
	"amstrack/internal/engine"
	"amstrack/internal/xrand"
)

// Config shapes a Daemon.
type Config struct {
	// Nodes are the amsd base URLs holding disjoint partitions. Cache
	// merges run in THIS order, so cached bundles stay byte-identical to
	// a one-shot MergeAcross over the same list.
	Nodes []string
	// Relations are the relation names to keep cached. A node that lacks
	// one simply contributes nothing for it (same skip rule as non-strict
	// joinctl).
	Relations []string
	// Refresh is the per-node background poll interval; each loop jitters
	// its own sleeps in [Refresh/2, Refresh) so a fleet of loops does not
	// stampede one node. <= 0 means DefaultRefresh.
	Refresh time.Duration
	// MaxStaleness, when > 0, is the serving bound: a query whose answer
	// would depend on a node copy older than this is refused with 503
	// instead of silently serving arbitrarily stale synopses. 0 serves
	// forever, with the staleness reported on every response.
	MaxStaleness time.Duration
	// Fetcher performs the node requests; nil builds a default one.
	Fetcher *Fetcher
	// Logf receives refresh-loop diagnostics (node down, relation gone);
	// nil discards them.
	Logf func(format string, args ...any)

	// now is the test seam for staleness arithmetic; nil means time.Now.
	now func() time.Time
}

// DefaultRefresh is the background poll interval when Config.Refresh is
// unset: snappy enough that sub-second ingest bursts surface quickly,
// cheap because the per-interval probe is a stat, not a bundle.
const DefaultRefresh = time.Second

// nodeCopy is one node's cached partition of one relation: the raw
// export bytes, the freshness stamp that versions them, and when they
// were last CONFIRMED current (either refetched, or stat-probed equal).
type nodeCopy struct {
	raw     []byte
	stat    engine.RelationStat
	freshAt time.Time
}

// relState is one relation's cache entry. merged is rebuilt from the
// copies (in node-list order) whenever any copy changes, so the query
// path reads a ready-made bundle and never merges; it is replaced, never
// mutated, so concurrent readers can hold it without locks.
type relState struct {
	copies map[string]*nodeCopy // keyed by node URL
	merged *engine.RelationBundle
}

// Daemon is the cached coordinator: background loops keep a
// per-(node, relation) bundle cache warm, queries answer from the merged
// cache with zero node round trips, and every answer carries an explicit
// staleness bound. A node loss degrades freshness, never availability —
// the last good copy keeps serving inside the staleness bound.
type Daemon struct {
	cfg     Config
	fx      *Fetcher
	now     func() time.Time
	maxBody int64 // request-body cap (0: amsd.DefaultMaxBody)

	mu      sync.RWMutex
	rels    map[string]*relState
	nodeErr map[string]string // last refresh error per node; "" healthy

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewDaemon validates cfg and builds the daemon with a cold cache. Call
// Sweep for a synchronous warm-up, Start for the background loops.
func NewDaemon(cfg Config) (*Daemon, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("coord: no nodes configured")
	}
	if len(cfg.Relations) == 0 {
		return nil, errors.New("coord: no relations configured")
	}
	if cfg.Refresh <= 0 {
		cfg.Refresh = DefaultRefresh
	}
	if cfg.Fetcher == nil {
		cfg.Fetcher = NewFetcher(nil, 1, 0)
	}
	if cfg.Fetcher.client == nil {
		cfg.Fetcher.client = defaultClient()
	}
	d := &Daemon{
		cfg:     cfg,
		fx:      cfg.Fetcher,
		now:     cfg.now,
		rels:    make(map[string]*relState, len(cfg.Relations)),
		nodeErr: make(map[string]string, len(cfg.Nodes)),
		stop:    make(chan struct{}),
	}
	if d.now == nil {
		d.now = time.Now
	}
	for _, rel := range cfg.Relations {
		d.rels[rel] = &relState{copies: make(map[string]*nodeCopy, len(cfg.Nodes))}
	}
	return d, nil
}

func defaultClient() *http.Client {
	return &http.Client{Timeout: 10 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
}

func (d *Daemon) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// Sweep refreshes every (node, relation) pair synchronously — the
// startup warm-up, and the deterministic lever the tests pull instead of
// waiting on timers. It returns the first node error it saw (queries
// still work; the error is advisory, mirrored in /healthz).
func (d *Daemon) Sweep() error {
	var first error
	for _, node := range d.cfg.Nodes {
		if err := d.sweepNode(node); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// sweepNode refreshes every relation from one node and records the
// node's health from the outcome.
func (d *Daemon) sweepNode(node string) error {
	var nodeErr error
	for _, rel := range d.cfg.Relations {
		if err := d.refreshOne(node, rel); err != nil {
			nodeErr = fmt.Errorf("relation %q: %w", rel, err)
			d.logf("coord: node %s: relation %q: %v", node, rel, err)
		}
	}
	d.mu.Lock()
	if nodeErr != nil {
		d.nodeErr[node] = nodeErr.Error()
	} else {
		d.nodeErr[node] = ""
	}
	d.mu.Unlock()
	if nodeErr != nil {
		return fmt.Errorf("node %s: %w", node, nodeErr)
	}
	return nil
}

// refreshOne is the delta-aware refresh of one (node, relation) pair:
// probe the cheap stat endpoint; an unchanged stamp just renews the
// copy's freshness, a changed one triggers the full bundle fetch, a 404
// drops the copy (the relation left that node). Fetch and node errors
// keep the last good copy — its freshAt stops advancing, so its
// staleness grows and the serving bound eventually refuses queries.
func (d *Daemon) refreshOne(node, rel string) error {
	probe, err := d.fx.FetchStat(node, rel)
	if errors.Is(err, ErrNotFound) {
		d.dropCopy(node, rel)
		return nil
	}
	if err != nil {
		return err
	}
	st := engine.RelationStat{Epoch: probe.Epoch, Seq: probe.Seq, Rows: probe.Rows}
	d.mu.RLock()
	cur := d.rels[rel].copies[node]
	unchanged := cur != nil && cur.stat == st
	d.mu.RUnlock()
	if unchanged {
		d.mu.Lock()
		if c := d.rels[rel].copies[node]; c != nil && c.stat == st {
			c.freshAt = d.now()
		}
		d.mu.Unlock()
		return nil
	}
	raw, err := d.fx.FetchBundleBytes(node, rel)
	if errors.Is(err, ErrNotFound) { // dropped between stat and fetch
		d.dropCopy(node, rel)
		return nil
	}
	if err != nil {
		return err
	}
	var b engine.RelationBundle
	if err := b.UnmarshalBinary(raw); err != nil {
		return fmt.Errorf("decode bundle: %w", err)
	}
	// Stamp the copy from the BUNDLE, not the probe: ops may have landed
	// between the two requests and the bundle's own stamp is what the
	// cached bytes actually contain.
	d.mu.Lock()
	d.rels[rel].copies[node] = &nodeCopy{
		raw:     raw,
		stat:    engine.RelationStat{Epoch: b.Epoch, Seq: b.Seq, Rows: b.Rows},
		freshAt: d.now(),
	}
	err = d.rebuildLocked(rel)
	d.mu.Unlock()
	return err
}

func (d *Daemon) dropCopy(node, rel string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	rs := d.rels[rel]
	if _, ok := rs.copies[node]; !ok {
		return
	}
	delete(rs.copies, node)
	if err := d.rebuildLocked(rel); err != nil {
		// Unreachable in practice: the surviving copies decoded before.
		d.logf("coord: rebuild %q after drop: %v", rel, err)
	}
}

// rebuildLocked re-merges one relation's cached copies in node-list
// order into a fresh bundle. Decoding from the raw bytes every time
// keeps the copies immutable; the merged pointer is swapped atomically
// under the write lock, so in-flight queries keep their old (still
// correct, slightly staler) bundle.
func (d *Daemon) rebuildLocked(rel string) error {
	rs := d.rels[rel]
	var merged *engine.RelationBundle
	for _, node := range d.cfg.Nodes {
		c, ok := rs.copies[node]
		if !ok {
			continue
		}
		b := &engine.RelationBundle{}
		if err := b.UnmarshalBinary(c.raw); err != nil {
			return fmt.Errorf("node %s: decode cached bundle: %w", node, err)
		}
		if merged == nil {
			merged = b
			continue
		}
		if err := merged.Merge(b); err != nil {
			return fmt.Errorf("node %s: %w", node, err)
		}
	}
	rs.merged = merged
	return nil
}

// Start launches one background refresh loop per node. Each loop sweeps
// immediately, then polls with jittered sleeps in [Refresh/2, Refresh).
func (d *Daemon) Start() {
	for i, node := range d.cfg.Nodes {
		d.wg.Add(1)
		go d.refreshLoop(node, uint64(i))
	}
}

// Stop halts the refresh loops and waits for them. The cache keeps
// serving afterwards; Stop is the drain step of a graceful shutdown.
func (d *Daemon) Stop() {
	d.stopOnce.Do(func() { close(d.stop) })
	d.wg.Wait()
}

func (d *Daemon) refreshLoop(node string, idx uint64) {
	defer d.wg.Done()
	// Per-loop RNG, its seed mixed with the node index so loops
	// desynchronize from each other AND from other daemons.
	rng := xrand.New(xrand.Seed() ^ xrand.Mix64(idx))
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-timer.C:
		}
		_ = d.sweepNode(node) // recorded in nodeErr, surfaced by /healthz
		half := d.cfg.Refresh / 2
		timer.Reset(half + time.Duration(rng.Uint64n(uint64(half)+1)))
	}
}

// lookup returns a relation's merged bundle plus its staleness evidence:
// per-node copy ages and the overall staleness (the OLDEST contributing
// copy — the bound on how much ingest the answer can be missing). A
// relation no node serves is unknown here, as on a node (404); one aged
// past the MaxStaleness serving bound is amsd.ErrTooStale (503).
func (d *Daemon) lookup(rel string) (*engine.RelationBundle, []amsd.NodeFreshness, time.Duration, error) {
	now := d.now()
	d.mu.RLock()
	defer d.mu.RUnlock()
	rs, ok := d.rels[rel]
	if !ok || rs.merged == nil {
		return nil, nil, 0, engine.UnknownRelation(rel)
	}
	var staleness time.Duration
	fresh := make([]amsd.NodeFreshness, 0, len(rs.copies))
	for _, node := range d.cfg.Nodes {
		c, ok := rs.copies[node]
		if !ok {
			continue
		}
		age := now.Sub(c.freshAt)
		if age < 0 {
			age = 0
		}
		if age > staleness {
			staleness = age
		}
		fresh = append(fresh, amsd.NodeFreshness{Node: node, AgeMS: age.Milliseconds(),
			Seq: c.stat.Seq, Epoch: c.stat.Epoch})
	}
	if d.cfg.MaxStaleness > 0 && staleness > d.cfg.MaxStaleness {
		return nil, fresh, staleness, fmt.Errorf(
			"relation %q: %w (%v old, bound %v)", rel, amsd.ErrTooStale, staleness, d.cfg.MaxStaleness)
	}
	return rs.merged, fresh, staleness, nil
}
