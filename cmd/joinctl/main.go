// Command joinctl is the multi-node coordinator CLI over internal/coord:
// it pulls per-partition synopsis bundles from N amsd nodes
// (GET /v1/signatures/{name}), merges each relation's partitions into
// the synopses of the union — EXACT, by linearity of the AGMS summaries,
// provided every node runs the same -seed and shape flags — and prints
// the join-size estimate with the paper's Lemma 4.4 one-σ bound and
// Fact 1.1 upper bound attached.
//
// Usage:
//
//	joinctl -nodes http://db1:7600,http://db2:7600 -f orders -g lineitems
//
// Chain mode coordinates the §5 three-way chain estimator instead: it
// pulls the three relations' bundles — chain sections included — from
// every node, merges the per-node end and middle signatures bit-exactly,
// and prints the chain estimate with the variance-envelope σ and the
// Cauchy–Schwarz upper bound:
//
//	joinctl -nodes ... -chain -left F -attr-a a -mid G -attr-b b -right H
//
// Serve mode turns the one-shot coordinator into a daemon: a
// per-(node, relation) bundle cache kept warm by background refresh
// loops that poll each node's cheap freshness stamp and refetch only
// changed bundles, answering GET /v1/selfjoin, GET /v1/join,
// POST /v1/join/chain and GET /v1/pairs — amsd's own estimate
// handlers, with a node's statuses and errors — plus GET /healthz, from
// memory with zero node round trips. Every answer carries staleness_ms
// — the age of the oldest node copy it depends on — and -max-staleness
// turns that bound into a 503 refusal. A lost node degrades freshness,
// never availability:
//
//	joinctl -nodes ... -serve -listen :7700 -relations orders,lineitems
//
// Each node is assumed to hold a disjoint partition of every named
// relation (a node that does not know a relation is skipped with a
// warning unless -strict). The coordinated estimate is bit-identical to
// what a single node holding ALL the data would answer — in chain mode
// and from the serve-mode cache too, since the synopses (and their
// freshness stamps) merge linearly.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"amstrack/internal/amsd"
	"amstrack/internal/coord"
)

// errUsage reports a bad command line. run has already printed why and
// the usage; main exits 2, as the flag package does.
var errUsage = errors.New("usage")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	if errors.Is(err, errUsage) {
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "joinctl:", err)
		os.Exit(1)
	}
}

// run parses args, then answers one query on stdout or, with -serve,
// runs the daemon until ctx is cancelled. Warnings and logs go to stderr.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("joinctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		nodes   = fs.String("nodes", "", "comma-separated amsd base URLs (required)")
		f       = fs.String("f", "", "left relation name (pairwise mode, required)")
		g       = fs.String("g", "", "right relation name (pairwise mode, required)")
		chain   = fs.Bool("chain", false, "coordinate a §5 three-way chain join instead of a pairwise one")
		left    = fs.String("left", "", "chain mode: left end relation F")
		mid     = fs.String("mid", "", "chain mode: middle relation G")
		right   = fs.String("right", "", "chain mode: right end relation H")
		attrA   = fs.String("attr-a", "", "chain mode: attribute joining F and G")
		attrB   = fs.String("attr-b", "", "chain mode: attribute joining G and H")
		strict  = fs.Bool("strict", false, "fail if any node lacks a relation (default: skip with a warning)")
		timeout = fs.Duration("timeout", 10*time.Second, "per-request HTTP timeout (each retry attempt gets the full budget)")
		retries = fs.Int("retries", 3, "attempts per node request; transport errors and 5xx retry, 4xx do not")
		backoff = fs.Duration("retry-backoff", 100*time.Millisecond, "base delay before the second attempt; doubles per retry (capped ~30s), with jitter")
		maxMB   = fs.Int64("max-bundle-mb", 64, "per-response size cap in MiB; a node response past it fails instead of exhausting memory")
		asJSON  = fs.Bool("json", false, "emit the result as one JSON object")

		serve     = fs.Bool("serve", false, "run as a cached coordinator daemon instead of a one-shot query")
		listen    = fs.String("listen", ":7700", "serve mode: HTTP listen address")
		relations = fs.String("relations", "", "serve mode: comma-separated relation names to keep cached (required)")
		refresh   = fs.Duration("refresh", coord.DefaultRefresh, "serve mode: background refresh interval per node (jittered)")
		maxStale  = fs.Duration("max-staleness", 0, "serve mode: refuse (503) answers older than this; 0 serves forever with staleness reported")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	usage := func(msg string) error {
		fmt.Fprintln(stderr, "joinctl:", msg)
		fs.Usage()
		return errUsage
	}
	// One keep-alive transport for the whole coordination: every node is
	// asked for signatures AND freshness stats, so reusing the connection
	// across phases halves the dials per node. The idle-pool cap is per
	// host — a wide -nodes list still keeps one warm connection per
	// daemon.
	tr := &http.Transport{MaxIdleConnsPerHost: 4}
	fx := coord.NewFetcher(&http.Client{Timeout: *timeout, Transport: tr}, *retries, *backoff)
	fx.SetMaxBody(*maxMB << 20)

	// answer prints a coordinated answer: the body itself as JSON, or the
	// human-readable report.
	answer := func(body interface{ Print(io.Writer) }) error {
		if *asJSON {
			return json.NewEncoder(stdout).Encode(body)
		}
		body.Print(stdout)
		return nil
	}
	switch {
	case *serve:
		if *nodes == "" || *relations == "" {
			return usage("-serve needs -nodes and -relations")
		}
		return runServe(ctx, fx, coord.SplitNodes(*nodes), coord.SplitNodes(*relations), *listen, *refresh, *maxStale, stderr)
	case *chain:
		if *nodes == "" || *left == "" || *mid == "" || *right == "" || *attrA == "" || *attrB == "" {
			return usage("-chain needs -nodes, -left, -mid, -right, -attr-a, and -attr-b")
		}
		res, err := coord.CoordinateChain(fx, coord.SplitNodes(*nodes), *left, *attrA, *mid, *attrB, *right, *strict, stderr)
		if err != nil {
			return err
		}
		return answer(res)
	default:
		if *nodes == "" || *f == "" || *g == "" {
			return usage("-nodes, -f, and -g are required")
		}
		res, err := coord.Coordinate(fx, coord.SplitNodes(*nodes), *f, *g, *strict, stderr)
		if err != nil {
			return err
		}
		return answer(res)
	}
}

// runServe runs the cached coordinator daemon until ctx is cancelled:
// warm the cache synchronously (a node being down at startup is logged,
// not fatal — its partitions fill in when it comes back), start the
// refresh loops, serve through amsd.Serve, then stop the loops.
func runServe(ctx context.Context, fx *coord.Fetcher, nodes, relations []string, listen string, refresh, maxStale time.Duration, logW io.Writer) error {
	logger := log.New(logW, "joinctl: ", log.LstdFlags)
	d, err := coord.NewDaemon(coord.Config{
		Nodes:        nodes,
		Relations:    relations,
		Refresh:      refresh,
		MaxStaleness: maxStale,
		Fetcher:      fx,
		Logf:         logger.Printf,
	})
	if err != nil {
		return err
	}
	if err := d.Sweep(); err != nil {
		logger.Printf("startup sweep: %v (serving anyway; refresh loops will recover)", err)
	}
	d.Start()
	logger.Printf("serving %d relation(s) from %d node(s) (refresh %v)", len(relations), len(nodes), refresh)
	return amsd.Serve(ctx, amsd.Daemon{
		Name:    "joinctl",
		Addr:    listen,
		Handler: d.Handler(),
		// Query bodies are tiny, so a full read timeout is safe here.
		ReadTimeout: 30 * time.Second,
		Close:       func() error { d.Stop(); return nil },
	})
}
