// Background checkpointer: the goroutine that turns Checkpoint from an
// operator chore into always-on durability. Two triggers — a jittered
// timer (Options.CheckpointInterval) and a segment-count threshold
// (Options.CheckpointSegments, kicked by oplog segment rolls) — both
// funnel into one goroutine, so checkpoints are single-flight by
// construction and a burst of rolls during a running checkpoint
// coalesces into at most one follow-up.
package engine

import (
	"time"

	"amstrack/internal/xrand"
)

type checkpointer struct {
	e        *Engine
	interval time.Duration
	segLimit int
	stop     chan struct{}
	done     chan struct{}
}

// startCheckpointer launches the background checkpointer when the
// options ask for one. Called once at the end of Open (recovery done,
// engine fully built, not yet published).
func (e *Engine) startCheckpointer() {
	if e.opts.Dir == "" || (e.opts.CheckpointInterval <= 0 && e.opts.CheckpointSegments <= 0) {
		return
	}
	c := &checkpointer{
		e:        e,
		interval: e.opts.CheckpointInterval,
		segLimit: e.opts.CheckpointSegments,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	e.ckpt = c
	go c.run()
}

// stopCheckpointer shuts the background checkpointer down and waits for
// it. Must be called WITHOUT e.mu held (the checkpointer takes it).
func (e *Engine) stopCheckpointer() {
	if e.ckpt == nil {
		return
	}
	close(e.ckpt.stop)
	<-e.ckpt.done
	e.ckpt = nil
}

// noteSegmentRoll is every relation log's onRoll hook: a non-blocking
// wake-up for the segment-count trigger. Capacity-1 channel, so any
// number of concurrent rolls collapse into one pending kick.
func (e *Engine) noteSegmentRoll() {
	select {
	case e.ckptKick <- struct{}{}:
	default:
	}
}

func (c *checkpointer) run() {
	defer close(c.done)
	// Jitter ±10% around the interval so a fleet of engines started
	// together does not checkpoint in lockstep forever.
	rng := xrand.New(xrand.Seed())
	var timer *time.Timer
	var timerC <-chan time.Time
	arm := func() {
		if c.interval <= 0 {
			return
		}
		d := time.Duration(float64(c.interval) * (0.9 + 0.2*rng.Float64()))
		if timer == nil {
			timer = time.NewTimer(d)
		} else {
			timer.Reset(d)
		}
		timerC = timer.C
	}
	arm()
	// Recovery may have reattached an over-threshold backlog of segments;
	// check once before waiting on triggers.
	c.kickCheck()
	for {
		select {
		case <-c.stop:
			if timer != nil {
				timer.Stop()
			}
			return
		case <-c.e.ckptKick:
			c.kickCheck()
		case <-timerC:
			c.checkpoint()
			arm()
		}
	}
}

// kickCheck runs the segment-count trigger: checkpoint only when some
// relation's live segment count has reached the threshold (rolls below
// it are normal operation, not a reason to checkpoint early).
func (c *checkpointer) kickCheck() {
	if c.segLimit <= 0 {
		return
	}
	if c.e.maxLiveSegments() >= c.segLimit {
		c.checkpoint()
	}
}

// checkpoint takes one checkpoint and swallows the error: the outcome is
// recorded for DurabilityStats (healthz surfaces it), and append-path
// failures are sticky on the logs anyway. Kicks that arrived while the
// checkpoint ran are stale — the checkpoint already absorbed those
// segments — so one pending kick is drained to coalesce.
func (c *checkpointer) checkpoint() {
	_, _ = c.e.Checkpoint()
	select {
	case <-c.e.ckptKick:
	default:
	}
}

// maxLiveSegments reports the largest live oplog segment count across
// relations — the quantity the CheckpointSegments trigger bounds.
func (e *Engine) maxLiveSegments() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	most := 0
	for _, r := range e.rels {
		if n := r.log.liveSegments(); n > most {
			most = n
		}
	}
	return most
}

// recordCheckpoint stores one checkpoint attempt's outcome for
// DurabilityStats.
func (e *Engine) recordCheckpoint(n int, err error) {
	e.statMu.Lock()
	defer e.statMu.Unlock()
	e.ckptCount++
	e.lastCkptErr = err
	if err == nil {
		e.lastCkptAt = time.Now()
		e.lastCkptBytes = n
	}
}

// RelationDurability is one relation's slice of DurabilityStats.
type RelationDurability struct {
	// Segments is the live oplog segment count (files recovery would
	// have to replay if the process died now).
	Segments int `json:"segments"`
	// OplogError is the sticky append error, "" when healthy.
	OplogError string `json:"oplog_error,omitempty"`
}

// DurabilityStats is the operator-facing durability state amsd's healthz
// reports: checkpoint recency and outcome, plus per-relation log health.
type DurabilityStats struct {
	Durable             bool                          `json:"durable"`
	LastCheckpointAt    time.Time                     `json:"last_checkpoint_at,omitzero"`
	LastCheckpointBytes int                           `json:"last_checkpoint_bytes,omitempty"`
	LastCheckpointError string                        `json:"last_checkpoint_error,omitempty"`
	Checkpoints         int64                         `json:"checkpoints"`
	Relations           map[string]RelationDurability `json:"relations,omitempty"`
}

// DurabilityStats reports the engine's current durability state.
func (e *Engine) DurabilityStats() DurabilityStats {
	st := DurabilityStats{Durable: e.opts.Dir != ""}
	e.statMu.Lock()
	st.LastCheckpointAt = e.lastCkptAt
	st.LastCheckpointBytes = e.lastCkptBytes
	if e.lastCkptErr != nil {
		st.LastCheckpointError = e.lastCkptErr.Error()
	}
	st.Checkpoints = e.ckptCount
	e.statMu.Unlock()
	e.mu.RLock()
	defer e.mu.RUnlock()
	st.Relations = make(map[string]RelationDurability, len(e.rels))
	for n, r := range e.rels {
		rd := RelationDurability{Segments: r.log.liveSegments()}
		if err := r.log.err(); err != nil {
			rd.OplogError = err.Error()
		}
		st.Relations[n] = rd
	}
	return st
}
