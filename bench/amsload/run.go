package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"amstrack/internal/wire"
)

// scale sizes the fixed parts of a run; the timed phases last --seconds.
type scale struct {
	rotation    int           // batches per pre-generated client rotation
	preload     int           // query-serve rows per preloaded relation
	chainRows   int           // query-serve rows per chain relation
	trickleRows int           // query-serve trickle list length
	warm        time.Duration // untimed load before a timed phase
	microCalls  int           // direct engine calls timed after the run
	setupRounds int           // fewest set-ups per run; setup_s is their median
}

// fullScale is the benchmark; the smoke test shrinks it.
var fullScale = scale{
	rotation:    2048, // 1M rows per client
	preload:     domain,
	chainRows:   50_000, // chain signatures cost O(k) per row
	trickleRows: 400_000,
	warm:        2 * time.Second,
	microCalls:  200,
	setupRounds: 3,
}

// check is one output check; a failed check fails the run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is what one workload run reports to its parent.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Checks    []check            `json:"checks"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

func (r *result) correct() bool {
	if len(r.Checks) == 0 {
		return false
	}
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// run is one workload execution in this process.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	dir      string // node data lives below it
	sc       scale
	tr       *tracer // nil: untraced
	res      *result
	late     recorder // how late paced sends started, µs
	rss      *rssSampler

	attempted, failed atomic.Int64
}

func (r *run) metric(name string, v float64) { r.res.Metrics[name] = v }

func (r *run) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if format != "" {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.res.Checks = append(r.res.Checks, c)
}

// checkErr records a check that passes when err is nil.
func (r *run) checkErr(name string, err error) {
	if err != nil {
		r.check(name, false, "%v", err)
		return
	}
	r.check(name, true, "")
}

// within4σ checks |estimate − exact| ≤ 4σ.
func (r *run) within4σ(name string, est, exact, sigma float64) {
	dev := math.Abs(est - exact)
	r.check(name, dev <= 4*sigma, "estimate %.6g exact %.6g |err| %.3gσ", est, exact, dev/sigma)
}

// Set-up repeats at least sc.setupRounds times and until setupBudget is
// spent, at most maxSetups times: a cheap set-up is timed often enough
// for its median to settle, an expensive one is not paid for long.
const (
	setupBudget = 2 * time.Second
	maxSetups   = 9
)

// setup builds the system repeatedly, each time in a fresh directory,
// tears all but the last build down, and reports the median build time
// as setup_s.
func setup[T any](r *run, build func(dir string) (T, error), teardown func(T)) (T, error) {
	var (
		durs  []float64
		spent time.Duration
	)
	for i := 0; ; i++ {
		dir := filepath.Join(r.dir, "setup-"+strconv.Itoa(i))
		t0 := time.Now()
		sys, err := build(dir)
		if err != nil {
			return sys, fmt.Errorf("set-up %d: %w", i, err)
		}
		d := time.Since(t0)
		spent += d
		durs = append(durs, d.Seconds())
		if i+1 >= maxSetups || (i+1 >= r.sc.setupRounds && spent >= setupBudget) {
			r.metric("setup_s", median(durs))
			return sys, nil
		}
		teardown(sys)
		if err := os.RemoveAll(dir); err != nil {
			return sys, err
		}
	}
}

// batch is one wire batch of a client stream.
type batch struct {
	rel  string
	del  bool
	vals []uint64
}

// writer is one wire client sending commit groups: size batches (0:
// groupBatches), then Flush; a group is acked when Flush returns.
type writer struct {
	r    *run
	wc   *wire.Client
	size int
	next func(i int) batch // the i-th batch of the client's stream
	sent int               // acked prefix of the stream, in batches
	rows int64             // rows in the acked prefix

	// In the timed phase, each acked group's latency (ms) and rows,
	// stamped from start.
	acks  *series
	start time.Time
}

// group sends one commit group; on error the group counts as failed.
func (w *writer) group() error {
	tr := w.r.tr
	var gid uint64
	if tr != nil {
		gid = tr.newID()
	}
	size := w.size
	if size == 0 {
		size = groupBatches
	}
	w.r.attempted.Add(int64(size))
	t0 := time.Now()
	var rows int64
	for j := 0; j < size; j++ {
		b := w.next(w.sent + j)
		s0 := time.Now()
		var err error
		if b.del {
			err = w.wc.DeleteBatch(b.rel, b.vals)
		} else {
			err = w.wc.InsertBatch(b.rel, b.vals)
		}
		if tr != nil {
			s1 := time.Now()
			tr.send.add(float64(s1.Sub(s0)) / float64(time.Microsecond))
			tr.record("wire.send", gid, tr.newID(), gid, s0, s1)
		}
		if err != nil {
			w.r.failed.Add(int64(size))
			return fmt.Errorf("send %s: %w", b.rel, err)
		}
		rows += int64(len(b.vals))
	}
	f0 := time.Now()
	err := w.wc.Flush()
	t1 := time.Now()
	if tr != nil {
		tr.flush.add(float64(t1.Sub(f0)) / float64(time.Microsecond))
		tr.record("wire.flush", gid, tr.newID(), gid, f0, t1)
		tr.record("ingest.group", gid, gid, 0, t0, t1)
	}
	if err != nil {
		w.r.failed.Add(int64(size))
		return fmt.Errorf("flush: %w", err)
	}
	w.sent += size
	w.rows += rows
	if w.acks != nil {
		w.acks.add(t1.Sub(w.start), float64(t1.Sub(t0))/float64(time.Millisecond), float64(rows))
	}
	return nil
}

// drive runs every writer's closed loop until deadline, recording the
// groups acked after start in acks, and returns the rows acked.
func drive(writers []*writer, start, deadline time.Time, acks *series) (int64, error) {
	before := make([]int64, len(writers))
	for i, w := range writers {
		before[i] = w.rows
		w.acks, w.start = acks, start
	}
	var (
		wg   sync.WaitGroup
		errs = make([]error, len(writers))
	)
	for i, w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if err := w.group(); err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	var rows int64
	for i, w := range writers {
		w.acks = nil
		if errs[i] != nil {
			return 0, fmt.Errorf("writer %d: %w", i, errs[i])
		}
		rows += w.rows - before[i]
	}
	return rows, nil
}

// queryClient is the load generator's one HTTP connection.
func queryClient() *http.Client {
	return &http.Client{Timeout: 10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// query issues one request and decodes a 200 JSON answer into out. A
// traced run records it as the root span "query" and passes the span
// to the handler through spanHeader.
func (r *run) query(c *http.Client, method, url string, body, out any) error {
	r.attempted.Add(1)
	err := r.doQuery(c, method, url, body, out)
	if err != nil {
		r.failed.Add(1)
	}
	return err
}

func (r *run) doQuery(c *http.Client, method, url string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if r.tr != nil {
		id, t0 := r.tr.newID(), time.Now()
		req.Header.Set(spanHeader, spanHeaderValue(id, id))
		defer func() { r.tr.record("query", id, id, 0, t0, time.Now()) }()
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// closedLoop sends queries back to back until deadline or until stop is
// closed, and records the latency (µs) of those answered after start in
// lat. A failed query is counted by query and has no latency; the first
// failure is logged.
func closedLoop(start, deadline time.Time, stop <-chan struct{}, lat *series, do func(i int) error) {
	failed := false
	for i := 0; time.Now().Before(deadline); i++ {
		select {
		case <-stop:
			return
		default:
		}
		t0 := time.Now()
		if err := do(i); err != nil {
			if !failed {
				logf("query: %v", err)
				failed = true
			}
			continue
		}
		t1 := time.Now()
		lat.add(t1.Sub(start), float64(t1.Sub(t0))/float64(time.Microsecond), 1)
	}
}

// paced calls fire(i, due) at start + i·period until deadline, sleeping
// between due times and never skipping one, and records how late each
// call started (µs) in late.
func paced(start, deadline time.Time, period time.Duration, late *recorder, fire func(i int, due time.Time)) {
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(deadline) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late.addSince(due, time.Microsecond)
		fire(i, due)
	}
}

// rssMiB reads the process's resident set size in MiB.
func rssMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/self/status")
}

// rssSampler tracks the highest resident set size seen from start to
// stop, sampled every rssPeriod. start first returns freed memory to
// the OS, so set-up garbage does not count as the measured phase's.
type rssSampler struct {
	peak float64
	err  error
	done chan struct{}
	wg   sync.WaitGroup
}

const rssPeriod = 10 * time.Millisecond

func startRSS() *rssSampler {
	debug.FreeOSMemory()
	s := &rssSampler{done: make(chan struct{})}
	s.sample()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(rssPeriod)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	v, err := rssMiB()
	if err != nil {
		s.err = err
		return
	}
	s.peak = max(s.peak, v)
}

// stop ends sampling and returns the peak in MiB.
func (s *rssSampler) stop() (float64, error) {
	close(s.done)
	s.wg.Wait()
	s.sample()
	return s.peak, s.err
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "amsload: "+format+"\n", args...)
}
