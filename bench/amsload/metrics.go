package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// metricDef is one row of the metric tables BENCHMARK.json declares.
// The smoke test checks the two stay equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// e2eMetrics are measured with tracing off, on every workload. A bound
// is the share of the parent's median by which the metric may worsen.
//
// Throughput gets the widest bound allowed: on a shared 2-vCPU VM the
// host's CPU speed drifts by tens of percent for minutes at a time (a
// single-threaded sketch loop timed after each run ranges 110-170
// ns/row), so its ten-run spread reaches 0.15-0.2 however the runs are
// summarized. Sizes and accuracy do not drift and keep 0.10.
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_rows_per_s", "rows/s", "higher", 0.25},
	{"join_sigma_rel", "ratio", "lower", 0.10},
	{"synopsis_kb", "KiB", "lower", 0.10},
	{"peak_rss_mb", "MiB", "lower", 0.10},
}

// layerMetrics come from the traced run. A layer the workload does not
// reach reads 0. The ack and query rows are end-to-end latencies kept
// off the bounded list because this host cannot hold them to any bound
// allowed: query latency's ten-run spread reached 0.2-0.4 on the ingest
// workloads, p99 tails 0.57, and ack p50 in a closed loop (the
// reciprocal of the loop's throughput) amplifies the host's drift.
// They are measured on the workloads whose traffic has them.
var layerMetrics = []metricDef{
	{Name: "core.update_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "engine.apply_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "engine.drain_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.drain_us_p99", Unit: "us", Better: "lower"},
	{Name: "engine.rows_per_drain", Unit: "rows", Better: "higher"},
	{Name: "engine.checkpoints", Unit: "count", Better: "lower"},
	{Name: "engine.checkpoint_kb", Unit: "KiB", Better: "lower"},
	{Name: "engine.estimate_us", Unit: "us", Better: "lower"},
	{Name: "engine.export_us", Unit: "us", Better: "lower"},
	{Name: "engine.recover_s", Unit: "s", Better: "lower"},
	{Name: "oplog.write_calls", Unit: "count", Better: "lower"},
	{Name: "oplog.bytes_per_row", Unit: "B/row", Better: "lower"},
	{Name: "oplog.fsync_calls", Unit: "count", Better: "lower"},
	{Name: "oplog.fsync_us_p99", Unit: "us", Better: "lower"},
	{Name: "wire.send_us_p99", Unit: "us", Better: "lower"},
	{Name: "wire.flush_us_p50", Unit: "us", Better: "lower"},
	{Name: "wire.errors", Unit: "count", Better: "lower"},
	{Name: "router.apply_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "router.drain_us_p50", Unit: "us", Better: "lower"},
	{Name: "router.drain_us_p99", Unit: "us", Better: "lower"},
	{Name: "router.queue_depth_p99", Unit: "batches", Better: "lower"},
	{Name: "router.node_skew", Unit: "ratio", Better: "lower"},
	{Name: "amsd.selfjoin_us_p50", Unit: "us", Better: "lower"},
	{Name: "amsd.join_us_p50", Unit: "us", Better: "lower"},
	{Name: "amsd.export_us_p50", Unit: "us", Better: "lower"},
	{Name: "amsd.stat_calls", Unit: "count", Better: "lower"},
	{Name: "coord.join_us_p50", Unit: "us", Better: "lower"},
	{Name: "coord.chain_us_p50", Unit: "us", Better: "lower"},
	{Name: "coord.probe_calls", Unit: "count", Better: "lower"},
	{Name: "coord.fetch_calls", Unit: "count", Better: "lower"},
	{Name: "coord.fetch_kb", Unit: "KiB", Better: "lower"},
	{Name: "coord.refetch_ratio", Unit: "ratio", Better: "lower"},
	{Name: "coord.staleness_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "ack.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "ack.p99_ms", Unit: "ms", Better: "lower"},
	{Name: "query.per_s", Unit: "1/s", Better: "higher"},
	{Name: "query.p50_us", Unit: "us", Better: "lower"},
	{Name: "query.p90_us", Unit: "us", Better: "lower"},
	{Name: "query.p99_us", Unit: "us", Better: "lower"},
	{Name: "gen.late_p50_us", Unit: "us", Better: "lower"},
	{Name: "gen.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead", Unit: "ratio", Better: "lower"},
	{Name: "accuracy.join_relerr", Unit: "ratio", Better: "lower"},
	{Name: "accuracy.selfjoin_relerr", Unit: "ratio", Better: "lower"},
}

// percentile is the linearly interpolated p-th percentile (0..100) of
// xs, which it sorts; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// quartiles is Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), the rule the repeatability check is judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	m := ld + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// windowCount is how many equal windows a timed phase is cut into.
const windowCount = 20

// series holds a timed phase's samples, each stamped with its offset
// from the phase start. Its readings are medians over windowCount equal
// windows of the phase, so a burst of outside interference moves one
// window, not the result.
type series struct {
	mu sync.Mutex
	at []time.Duration
	v  []float64 // the sample, e.g. a latency
	n  []float64 // the work it completed, e.g. rows
}

func (s *series) add(at time.Duration, v, n float64) {
	s.mu.Lock()
	s.at = append(s.at, at)
	s.v = append(s.v, v)
	s.n = append(s.n, n)
	s.mu.Unlock()
}

// windows groups the samples taken within [0, span) by window.
func (s *series) windows(span time.Duration) [][]int {
	w := make([][]int, windowCount)
	for i, at := range s.at {
		if k := int(int64(at) * windowCount / int64(span)); at >= 0 && k < windowCount {
			w[k] = append(w[k], i)
		}
	}
	return w
}

// rate is the median over windows of the work completed per second,
// each window's rate measured from its first completion to its last.
func (s *series) rate(span time.Duration) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rates []float64
	for _, idx := range s.windows(span) {
		if len(idx) < 2 {
			continue
		}
		sort.Slice(idx, func(a, b int) bool { return s.at[idx[a]] < s.at[idx[b]] })
		sum := 0.0
		for _, i := range idx[1:] {
			sum += s.n[i]
		}
		if d := s.at[idx[len(idx)-1]] - s.at[idx[0]]; d > 0 {
			rates = append(rates, sum/d.Seconds())
		}
	}
	return median(rates)
}

// pct is the median over windows of each window's p-th percentile.
func (s *series) pct(span time.Duration, p float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ps []float64
	for _, idx := range s.windows(span) {
		if len(idx) == 0 {
			continue
		}
		xs := make([]float64, len(idx))
		for j, i := range idx {
			xs[j] = s.v[i]
		}
		ps = append(ps, percentile(xs, p))
	}
	return median(ps)
}

// recorder collects latency samples from several goroutines.
type recorder struct {
	mu sync.Mutex
	xs []float64
}

func (r *recorder) add(x float64) {
	r.mu.Lock()
	r.xs = append(r.xs, x)
	r.mu.Unlock()
}

func (r *recorder) addSince(t0 time.Time, unit time.Duration) {
	r.add(float64(time.Since(t0)) / float64(unit))
}

// pct returns the p-th percentile of the samples so far.
func (r *recorder) pct(p float64) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return percentile(r.xs, p)
}

func (r *recorder) n() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.xs)
}

func (r *recorder) reset() {
	r.mu.Lock()
	r.xs = nil
	r.mu.Unlock()
}

func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
