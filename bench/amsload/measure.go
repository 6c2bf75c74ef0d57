package main

import (
	"fmt"
	"math"
	"time"

	"amstrack/internal/core"
	"amstrack/internal/join"
)

// Measurements and output checks the workloads share.

// beginMeasure starts the measured phase: traces forget set-up and
// warm-up, and the RSS sampler starts.
func (r *run) beginMeasure() {
	if r.tr != nil {
		r.tr.reset()
	}
	r.rss = startRSS()
}

// endMeasure ends the measured phase, in which rows were acked.
func (r *run) endMeasure(rows, wireErrs int64) error {
	peak, err := r.rss.stop()
	if err != nil {
		return err
	}
	r.metric("peak_rss_mb", peak)
	r.layerSnapshot(rows, wireErrs)
	return nil
}

// ackMetrics reads the timed phase's acked commit groups.
func (r *run) ackMetrics(acks *series) {
	r.metric("ingest_rows_per_s", acks.rate(r.seconds))
	r.metric("ack.p50_ms", acks.pct(r.seconds, 50))
	r.metric("ack.p99_ms", acks.pct(r.seconds, 99))
}

// queryMetrics reads a query phase of length span.
func (r *run) queryMetrics(lat *series, span time.Duration) {
	r.metric("query.per_s", lat.rate(span))
	r.metric("query.p50_us", lat.pct(span, 50))
	r.metric("query.p90_us", lat.pct(span, 90))
	r.metric("query.p99_us", lat.pct(span, 99))
}

// joinAccuracy scores the final join answer against the generator's
// exact counts: σ relative to the true size, and the 4σ checks on the
// estimate and on both self-join estimates behind σ.
func (r *run) joinAccuracy(ans joinAnswer, f, g counts) {
	exact := f.join(g)
	r.metric("join_sigma_rel", ans.Sigma/exact)
	r.metric("accuracy.join_relerr", math.Abs(ans.Estimate-exact)/exact)
	r.within4σ("join-within-4sigma", ans.Estimate, exact, ans.Sigma)
	sjf, sjg := f.selfJoin(), g.selfJoin()
	r.metric("accuracy.selfjoin_relerr", math.Abs(ans.SJF-sjf)/sjf)
	r.within4σ("selfjoin-f-within-4sigma", ans.SJF, sjf, selfJoinSigma(sjf, 1024))
	r.within4σ("selfjoin-g-within-4sigma", ans.SJG, sjg, selfJoinSigma(sjg, 1024))
}

// conserved checks that the nodes hold exactly the acked rows.
func (r *run) conserved(nodes []*node, rels []string, want int64) {
	var held int64
	for _, n := range nodes {
		x, err := n.rows(rels)
		if err != nil {
			r.check("rows-conserved", false, "%v", err)
			return
		}
		held += x
	}
	r.check("rows-conserved", held == want, "nodes hold %d rows, %d acked", held, want)
}

func (r *run) nodeSkew(nodes []*node, rels []string) {
	var sum, most float64
	for _, n := range nodes {
		x, err := n.rows(rels)
		if err != nil {
			return
		}
		sum += float64(x)
		most = max(most, float64(x))
	}
	r.metric("router.node_skew", ratio(most, sum/float64(len(nodes))))
}

func (r *run) nodeMetrics(nodes []*node, rels []string) error {
	if err := r.synopsisKB(nodes, rels); err != nil {
		return err
	}
	return r.engineCalls(nodes, rels[0], rels[1])
}

func (r *run) synopsisKB(nodes []*node, rels []string) error {
	total := 0
	for _, n := range nodes {
		b, err := n.exportBytes(rels)
		if err != nil {
			return err
		}
		total += b
	}
	r.metric("synopsis_kb", float64(total)/1024)
	return nil
}

// engineCalls reads the durability counters and times the engine's
// estimate and export directly on the first node, no transport.
func (r *run) engineCalls(nodes []*node, f, g string) error {
	if r.tr == nil {
		return nil
	}
	var ckpts int64
	var ckptKB float64
	for _, n := range nodes {
		st := n.eng.DurabilityStats()
		ckpts += st.Checkpoints
		ckptKB = max(ckptKB, float64(st.LastCheckpointBytes)/1024)
	}
	r.metric("engine.checkpoints", float64(ckpts))
	r.metric("engine.checkpoint_kb", ckptKB)
	eng := nodes[0].eng
	est, err := timeCalls(r.sc.microCalls, func() error { _, err := eng.EstimateJoin(f, g); return err })
	if err != nil {
		return err
	}
	exp, err := timeCalls(r.sc.microCalls, func() error { _, err := eng.ExportRelation(f); return err })
	if err != nil {
		return err
	}
	r.metric("engine.estimate_us", est)
	r.metric("engine.export_us", exp)
	return nil
}

// timeCalls returns the median duration of n calls, in µs.
func timeCalls(n int, fn func() error) (float64, error) {
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs[i] = float64(time.Since(t0)) / float64(time.Microsecond)
	}
	return percentile(xs, 50), nil
}

func (r *run) restartAll(nodes []*node, rels []string) {
	var worst time.Duration
	var firstErr error
	for i, n := range nodes {
		d, err := n.restart(rels)
		worst = max(worst, d)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("node %d: %w", i, err)
		}
	}
	r.checkErr("restart-recovers-exports", firstErr)
	r.metric("engine.recover_s", worst.Seconds())
}

// coreBaseline is the single-threaded cost of the node's synopses with
// no engine or transport: a 1024×8 Fast-AMS sketch plus a 128×8 fast
// join signature, batch-updated over the workload's own rotations.
func (r *run) coreBaseline(rots ...[][]uint64) {
	sk, err := core.NewFastTugOfWar(core.Config{S1: 1024, S2: 8, Seed: 42})
	if err != nil {
		logf("core baseline: %v", err)
		return
	}
	fam, err := join.NewFastFamily(128, 8, 42)
	if err != nil {
		logf("core baseline: %v", err)
		return
	}
	sig := fam.NewSignature()
	rows := 0
	t0 := time.Now()
	for _, rot := range rots {
		for _, b := range rot {
			sk.InsertBatch(b)
			sig.InsertBatch(b)
			rows += len(b)
		}
	}
	r.metric("core.update_ns_per_row", float64(time.Since(t0).Nanoseconds())/float64(rows))
}

// layerSnapshot turns the probes' counters into per-layer metrics at the
// end of the measured phase; rows is the rows acked in that phase.
func (r *run) layerSnapshot(rows, wireErrs int64) {
	r.metric("gen.late_p50_us", r.late.pct(50))
	r.metric("gen.late_p99_us", r.late.pct(99))
	t := r.tr
	if t == nil {
		return
	}
	for _, p := range []*sinkProbe{&t.engine, &t.router} {
		r.metric(p.layer+".apply_ns_per_row", ratio(float64(p.applyNs.Load()), float64(p.rows.Load())))
		r.metric(p.layer+".drain_us_p50", p.drains.pct(50))
		r.metric(p.layer+".drain_us_p99", p.drains.pct(99))
	}
	r.metric("engine.rows_per_drain", ratio(float64(t.engine.rows.Load()), float64(t.engine.drains.n())))
	r.metric("router.queue_depth_p99", t.queue.pct(99))
	r.metric("oplog.write_calls", float64(t.fs.writes.Load()))
	r.metric("oplog.bytes_per_row", ratio(float64(t.fs.bytes.Load()), float64(rows)))
	r.metric("oplog.fsync_calls", float64(t.fs.syncs.n()))
	r.metric("oplog.fsync_us_p99", t.fs.syncs.pct(99))
	r.metric("wire.send_us_p99", t.send.pct(99))
	r.metric("wire.flush_us_p50", t.flush.pct(50))
	r.metric("wire.errors", float64(wireErrs))
	for _, route := range []string{"selfjoin", "join", "export"} {
		r.metric("amsd."+route+"_us_p50", t.amsd.route(route).pct(50))
	}
	r.metric("amsd.stat_calls", float64(t.amsd.route("stat").n()))
	r.metric("coord.join_us_p50", t.coord.route("join").pct(50))
	r.metric("coord.chain_us_p50", t.coord.route("chain").pct(50))
	probes, fetches := float64(t.fetch.probes.Load()), float64(t.fetch.fetches.Load())
	r.metric("coord.probe_calls", probes)
	r.metric("coord.fetch_calls", fetches)
	r.metric("coord.fetch_kb", float64(t.fetch.bytes.Load())/1024)
	r.metric("coord.refetch_ratio", ratio(fetches, probes))
}
