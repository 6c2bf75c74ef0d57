package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"amstrack/internal/engine"
	"amstrack/internal/tablefmt"
	"amstrack/internal/xrand"
)

// This file measures what always-on durability costs the ingest tail: a
// single writer streams inserts into a durable engine
// while the background checkpointer is OFF, then again while it fires
// every few milliseconds, and the two per-op latency distributions are
// compared at p99/p999. The pause-free epoch fence claims checkpoints
// never stall ingest; the GATED metric is the ratio on_p99/off_p99
// measured in the same process, so the OFF run doubles as a
// machine-speed probe and the number survives runner variance. The
// acceptance bar is ratio ≤ 2 (checkpointing may cost bandwidth, not
// stalls); the committed baseline plus benchgate's tolerance enforces
// it in CI.

// CkptTailResult carries the checkpoint-tail experiment.
type CkptTailResult struct {
	Experiment string `json:"experiment"` // "ckpttail"
	K          int    `json:"k"`
	Ops        int    `json:"ops"` // ops in the OFF run (ON runs at least this many)

	OffP99Ns  float64 `json:"off_p99_ns"`
	OffP999Ns float64 `json:"off_p999_ns"`
	OnP99Ns   float64 `json:"on_p99_ns"`
	OnP999Ns  float64 `json:"on_p999_ns"`

	// Checkpoints taken during the ON run — must be ≥ 2 or the run
	// measured nothing.
	Checkpoints int64 `json:"checkpoints"`
	// Ratio is the gated headline: on_p99 / off_p99.
	Ratio float64 `json:"ratio"`
}

const ckptTailOps = 200_000

// RunCkptTail measures single-writer durable insert latency with the
// background checkpointer off and on (k signature words).
func RunCkptTail(k int, seed uint64) (*CkptTailResult, error) {
	res := &CkptTailResult{Experiment: "ckpttail", K: k, Ops: ckptTailOps}
	off, _, err := timeCkptTail(k, seed, 0)
	if err != nil {
		return nil, err
	}
	on, ckpts, err := timeCkptTail(k, seed, 10*time.Millisecond)
	if err != nil {
		return nil, err
	}
	res.Checkpoints = ckpts
	res.OffP99Ns, res.OffP999Ns = pctNs(off, 0.99), pctNs(off, 0.999)
	res.OnP99Ns, res.OnP999Ns = pctNs(on, 0.99), pctNs(on, 0.999)
	if res.OffP99Ns > 0 {
		res.Ratio = res.OnP99Ns / res.OffP99Ns
	}
	return res, nil
}

// timeCkptTail runs one latency-sampled ingest pass. interval 0 leaves
// the checkpointer off; otherwise the pass keeps inserting past the base
// op count until at least two checkpoints have completed, so the sampled
// distribution always contains fence windows.
func timeCkptTail(k int, seed uint64, interval time.Duration) (lats []int64, ckpts int64, err error) {
	dir, err := os.MkdirTemp("", "ckpttail-*")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	eng, err := engine.Open(engine.Options{
		SignatureWords:     k,
		Seed:               seed,
		Dir:                dir,
		SegmentOps:         1 << 14,
		CheckpointInterval: interval,
	})
	if err != nil {
		return nil, 0, err
	}
	defer eng.Close()
	rel, err := eng.Define("r")
	if err != nil {
		return nil, 0, err
	}

	const block = 1 << 13
	vals := make([]uint64, block)
	r := xrand.New(seed*31 + 7)
	for i := range vals {
		vals[i] = r.Uint64n(1 << 16)
	}
	// Warm up the pipeline (staging buffers, absorbers, log writer).
	rel.InsertBatch(vals[:256])
	if err := rel.Drain(); err != nil {
		return nil, 0, err
	}

	lats = make([]int64, 0, 2*ckptTailOps)
	insertOne := func(i int) {
		v := vals[i&(block-1)]
		t0 := time.Now()
		rel.Insert(v)
		lats = append(lats, time.Since(t0).Nanoseconds())
	}
	for i := 0; i < ckptTailOps; i++ {
		insertOne(i)
	}
	if interval > 0 {
		// Keep streaming (bounded) until two checkpoints landed: the
		// distribution must include ops racing a fence.
		for extra := 0; extra < 8*ckptTailOps; extra++ {
			if extra%1024 == 0 && eng.DurabilityStats().Checkpoints >= 2 {
				break
			}
			insertOne(extra)
		}
	}
	if err := rel.Drain(); err != nil {
		return nil, 0, err
	}
	st := eng.DurabilityStats()
	if interval > 0 {
		if st.LastCheckpointError != "" {
			return nil, 0, fmt.Errorf("experiments: background checkpoint failed: %s", st.LastCheckpointError)
		}
		if st.Checkpoints < 2 {
			return nil, 0, fmt.Errorf("experiments: only %d checkpoints fired during the ON run", st.Checkpoints)
		}
	}
	return lats, st.Checkpoints, nil
}

// pctNs sorts a copy and reads the p-quantile in nanoseconds.
func pctNs(lats []int64, p float64) float64 {
	s := make([]int64, len(lats))
	copy(s, lats)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s) == 0 {
		return 0
	}
	return float64(s[int(p*float64(len(s)-1))])
}

// Table renders the two distributions for amsbench's aligned output.
func (r *CkptTailResult) Table() *tablefmt.Table {
	t := tablefmt.New("checkpointer", "p99 ns", "p99.9 ns")
	t.AddRow("off", r.OffP99Ns, r.OffP999Ns)
	t.AddRow("on", r.OnP99Ns, r.OnP999Ns)
	return t
}

// JSON serializes the result for machine consumption (BENCH_ckpt.json).
func (r *CkptTailResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
