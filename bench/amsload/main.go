// Command amsload is the repository's end-to-end benchmark. It hosts the
// system in-process (durable engine.Open nodes behind amswire and amsd
// HTTP listeners on 127.0.0.1, router.New with its wire front, and the
// coord.NewDaemon cached coordinator), drives one of four workloads from
// this process with at most two client connections, prints every
// metric by name with its unit, and checks the outputs against ground
// truth the generator keeps.
//
// Usage:
//
//	amsload                                   all four workloads, untraced
//	amsload --workload W --seed N --seconds S --trace 0|1
//	amsload --runs N [--workload W]           repeatability: N seeds each
//
// Each workload runs in a fresh child process, so memory and GC state do
// not leak between workloads. With --trace 1 the workload runs twice,
// untraced and then traced: the traced run installs the seam probes,
// reports the per-layer metrics, writes its spans under --spans, and
// trace.overhead is the untraced ÷ traced throughput. With --workload
// the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// A failed output check exits 1.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// childTimeout is one workload run's hard limit.
	childTimeout = 120 * time.Second
	// driverBudget bounds a --workload invocation, traced ones included.
	driverBudget = 170 * time.Second
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	runs     int
	spans    string
	workdir  string
	child    bool
}

func main() { os.Exit(amsload(os.Args[1:])) }

func amsload(args []string) int {
	var o options
	fs := flag.NewFlagSet("amsload", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run (empty: all four)")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of each timed phase in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1: also run traced and report per-layer metrics")
	fs.IntVar(&o.runs, "runs", 0, "repeatability mode: N runs per workload at seeds seed..seed+N-1")
	fs.StringVar(&o.spans, "spans", ".bench_build/spans", "directory for the span files of traced runs")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/work", "directory for node data")
	fs.BoolVar(&o.child, "child", false, "run one workload in this process (used by the parent)")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	selected := workloads
	switch {
	case fs.NArg() > 0:
		logf("unexpected argument %q", fs.Arg(0))
		return 1
	case o.trace != 0 && o.trace != 1:
		logf("--trace must be 0 or 1, not %d", o.trace)
		return 1
	case !(o.seconds > 0) || o.seconds > 60:
		logf("--seconds must be in (0, 60], not %v", o.seconds)
		return 1
	case o.runs < 0:
		logf("--runs must not be negative")
		return 1
	case o.workload != "":
		w, ok := findWorkload(o.workload)
		if !ok {
			logf("unknown workload %q", o.workload)
			return 1
		}
		selected = []workloadDef{w}
	}
	if o.child {
		if o.workload == "" {
			logf("-child needs --workload")
			return 1
		}
		return childMain(o, selected[0])
	}
	// A signal cancels the context, which kills the running child.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch {
	case o.runs > 0:
		return repeatMain(ctx, o, selected)
	case o.workload != "":
		return driverMain(ctx, o, selected[0])
	}
	ok := true
	for _, w := range selected {
		res, err := measure(ctx, o, w)
		if err != nil {
			logf("%v", err)
			ok = false
			continue
		}
		printResult(os.Stdout, res, o.defs())
		ok = ok && res.correct()
	}
	if !ok {
		return 1
	}
	return 0
}

func (o options) defs() []metricDef {
	if o.trace == 1 {
		return layerMetrics
	}
	return e2eMetrics
}

func (o options) duration() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// childMain runs one workload in this process and prints its result as
// the last line of standard output.
func childMain(o options, w workloadDef) int {
	res, err := runWorkload(w, o.seed, o.duration(), o.trace == 1, o.workdir, o.spans, fullScale)
	if err != nil {
		logf("%s: %v", w.Name, err)
		return 1
	}
	data, err := json.Marshal(res)
	if err != nil {
		logf("%s: %v", w.Name, err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}

// runWorkload runs w in this process; dir holds the node data.
func runWorkload(w workloadDef, seed uint64, seconds time.Duration, traced bool, dir, spans string, sc scale) (*result, error) {
	r := &run{workload: w.Name, seed: seed, seconds: seconds, dir: dir, sc: sc,
		res: &result{Workload: w.Name, Seed: seed, Traced: traced, Metrics: map[string]float64{}}}
	if traced {
		r.tr = newTracer()
	}
	if err := w.run(r); err != nil {
		return nil, err
	}
	r.res.Attempted, r.res.Failed = r.attempted.Load(), r.failed.Load()
	if traced && spans != "" {
		name := w.Name + "-seed" + strconv.FormatUint(seed, 10)
		if err := r.tr.writeSpans(spans, name); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "%s: per-layer busy and self time (spans in %s)\n", w.Name, spans)
		r.tr.printLayers(os.Stderr)
	}
	return r.res, nil
}

// measure runs w in fresh child processes: untraced, and with --trace 1
// traced as well, combining the two into the traced result.
func measure(ctx context.Context, o options, w workloadDef) (*result, error) {
	return measureWith(ctx, o, w, spawn)
}

type runner func(ctx context.Context, o options, w workloadDef, traced bool) (*result, error)

func measureWith(ctx context.Context, o options, w workloadDef, runOne runner) (*result, error) {
	u, err := runOne(ctx, o, w, false)
	if err != nil || o.trace == 0 {
		return u, err
	}
	t, err := runOne(ctx, o, w, true)
	if err != nil {
		return nil, err
	}
	t.Metrics["trace.overhead"] = ratio(u.Metrics[w.primary], t.Metrics[w.primary])
	for _, c := range u.Checks {
		c.Name = "untraced/" + c.Name
		t.Checks = append(t.Checks, c)
	}
	t.Attempted += u.Attempted
	t.Failed += u.Failed
	return t, nil
}

// spawn runs one workload in a child process of this binary.
func spawn(ctx context.Context, o options, w workloadDef, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", w.Name,
		"-seed", strconv.FormatUint(o.seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", trace, "-workdir", dir, "-spans", o.spans)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			err = fmt.Errorf("%w (%v)", err, ctx.Err())
		}
		return nil, fmt.Errorf("%s (seed %d): %w", w.Name, o.seed, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: child result: %w", w.Name, err)
	}
	return &res, nil
}

// driverMain is the --workload mode: one result, then the JSON line.
func driverMain(ctx context.Context, o options, w workloadDef) int {
	ctx, cancel := context.WithTimeout(ctx, driverBudget)
	defer cancel()
	res, err := measure(ctx, o, w)
	if err != nil {
		logf("%v", err)
		return 1
	}
	printResult(os.Stdout, res, o.defs())
	line, err := contractLine(res, o.defs())
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(line)
	if !res.correct() {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the one-line JSON result: every metric of defs, a
// layer the workload does not reach reading 0.
func contractLine(res *result, defs []metricDef) (string, error) {
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, map[string]metricValue{}}
	for _, d := range defs {
		v := res.Metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	data, err := json.Marshal(out)
	return string(data), err
}

func printResult(w io.Writer, res *result, defs []metricDef) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	status := "correct"
	if !res.correct() {
		status = "INCORRECT"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  %s\n", res.Workload, res.Seed, mode, status)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", d.Name, res.Metrics[d.Name], d.Unit)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  failed_ratio %.3g\n",
		res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	for _, c := range res.Checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "  %s %-34s %s\n", mark, c.Name, c.Detail)
	}
}

// repeatMain runs each workload at --runs seeds and prints each metric's
// median, quartiles and spread ((q3 − q1) ÷ median), flagging any
// end-to-end metric whose spread exceeds its bound (setup_s is exempt).
func repeatMain(ctx context.Context, o options, selected []workloadDef) int {
	ok := true
	for _, w := range selected {
		vals := map[string][]float64{}
		for i := 0; i < o.runs; i++ {
			oi := o
			oi.seed = o.seed + uint64(i)
			res, err := measure(ctx, oi, w)
			if err != nil {
				logf("%v", err)
				ok = false
				continue
			}
			if !res.correct() {
				printResult(os.Stderr, res, nil)
				ok = false
			}
			for _, d := range o.defs() {
				vals[d.Name] = append(vals[d.Name], res.Metrics[d.Name])
			}
		}
		fmt.Printf("== %s  %d runs from seed %d\n", w.Name, o.runs, o.seed)
		fmt.Printf("  %-26s %12s %12s %12s %8s %6s\n", "metric", "median", "q1", "q3", "spread", "bound")
		flagged := []string{}
		for _, d := range o.defs() {
			xs := vals[d.Name]
			if len(xs) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(xs)
			spread := ratio(q3-q1, math.Abs(q2))
			mark := ""
			if d.Bound > 0 && spread > d.Bound && d.Name != "setup_s" {
				mark = "  SPREAD > BOUND"
				flagged = append(flagged, d.Name)
			}
			fmt.Printf("  %-26s %12.6g %12.6g %12.6g %8.4f %6.2f%s\n", d.Name, q2, q1, q3, spread, d.Bound, mark)
		}
		if len(flagged) > 0 {
			fmt.Printf("  flagged: %s\n", strings.Join(flagged, ", "))
		}
	}
	if !ok {
		return 1
	}
	return 0
}
