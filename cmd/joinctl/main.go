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
// changed bundles, answering GET /v1/join, POST /v1/join/chain,
// GET /v1/pairs, and GET /healthz from memory with zero node round
// trips. Every answer carries staleness_ms — the age of the oldest node
// copy it depends on — and -max-staleness turns that bound into a 503
// refusal. A lost node degrades freshness, never availability:
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
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"amstrack/internal/coord"
)

func main() {
	var (
		nodes   = flag.String("nodes", "", "comma-separated amsd base URLs (required)")
		f       = flag.String("f", "", "left relation name (pairwise mode, required)")
		g       = flag.String("g", "", "right relation name (pairwise mode, required)")
		chain   = flag.Bool("chain", false, "coordinate a §5 three-way chain join instead of a pairwise one")
		left    = flag.String("left", "", "chain mode: left end relation F")
		mid     = flag.String("mid", "", "chain mode: middle relation G")
		right   = flag.String("right", "", "chain mode: right end relation H")
		attrA   = flag.String("attr-a", "", "chain mode: attribute joining F and G")
		attrB   = flag.String("attr-b", "", "chain mode: attribute joining G and H")
		strict  = flag.Bool("strict", false, "fail if any node lacks a relation (default: skip with a warning)")
		timeout = flag.Duration("timeout", 10*time.Second, "per-request HTTP timeout (each retry attempt gets the full budget)")
		retries = flag.Int("retries", 3, "attempts per node request; transport errors and 5xx retry, 4xx do not")
		backoff = flag.Duration("retry-backoff", 100*time.Millisecond, "base delay before the second attempt; doubles per retry (capped ~30s), with jitter")
		maxMB   = flag.Int64("max-bundle-mb", 64, "per-response size cap in MiB; a node response past it fails instead of exhausting memory")
		asJSON  = flag.Bool("json", false, "emit the result as one JSON object")

		serve     = flag.Bool("serve", false, "run as a cached coordinator daemon instead of a one-shot query")
		listen    = flag.String("listen", ":7700", "serve mode: HTTP listen address")
		relations = flag.String("relations", "", "serve mode: comma-separated relation names to keep cached (required)")
		refresh   = flag.Duration("refresh", coord.DefaultRefresh, "serve mode: background refresh interval per node (jittered)")
		maxStale  = flag.Duration("max-staleness", 0, "serve mode: refuse (503) answers older than this; 0 serves forever with staleness reported")
	)
	flag.Parse()
	// One keep-alive transport for the whole coordination: every node is
	// asked for signatures AND freshness stats, so reusing the connection
	// across phases halves the dials per node. The idle-pool cap is per
	// host — a wide -nodes list still keeps one warm connection per
	// daemon.
	tr := &http.Transport{MaxIdleConnsPerHost: 4}
	fx := coord.NewFetcher(&http.Client{Timeout: *timeout, Transport: tr}, *retries, *backoff)
	fx.SetMaxBody(*maxMB << 20)

	if *serve {
		if *nodes == "" || *relations == "" {
			fmt.Fprintln(os.Stderr, "joinctl: -serve needs -nodes and -relations")
			flag.Usage()
			os.Exit(2)
		}
		runServe(fx, coord.SplitNodes(*nodes), coord.SplitNodes(*relations), *listen, *refresh, *maxStale)
		return
	}
	if *chain {
		if *nodes == "" || *left == "" || *mid == "" || *right == "" || *attrA == "" || *attrB == "" {
			fmt.Fprintln(os.Stderr, "joinctl: -chain needs -nodes, -left, -mid, -right, -attr-a, and -attr-b")
			flag.Usage()
			os.Exit(2)
		}
		res, err := coord.CoordinateChain(fx, coord.SplitNodes(*nodes), *left, *attrA, *mid, *attrB, *right, *strict, os.Stderr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "joinctl:", err)
			os.Exit(1)
		}
		if *asJSON {
			fmt.Printf(`{"f":%q,"attr_a":%q,"g":%q,"attr_b":%q,"h":%q,"nodes":%d,"rows_f":%d,"rows_g":%d,"rows_h":%d,"estimate":%g,"sigma":%g,"upper":%g,"sjf":%g,"sjg":%g,"sjh":%g,"k":%d}`+"\n",
				res.F, res.AttrA, res.G, res.AttrB, res.H, res.Nodes, res.RowsF, res.RowsG, res.RowsH,
				res.Estimate, res.Sigma, res.Upper, res.SJF, res.SJG, res.SJH, res.K)
			return
		}
		res.Print(os.Stdout)
		return
	}
	if *nodes == "" || *f == "" || *g == "" {
		fmt.Fprintln(os.Stderr, "joinctl: -nodes, -f, and -g are required")
		flag.Usage()
		os.Exit(2)
	}
	res, err := coord.Coordinate(fx, coord.SplitNodes(*nodes), *f, *g, *strict, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "joinctl:", err)
		os.Exit(1)
	}
	if *asJSON {
		fmt.Printf(`{"f":%q,"g":%q,"nodes":%d,"rows_f":%d,"rows_g":%d,"estimate":%g,"sigma":%g,"fact11":%g,"sjf":%g,"sjg":%g,"k":%d,"estimator":%q}`+"\n",
			res.F, res.G, res.Nodes, res.RowsF, res.RowsG, res.Estimate, res.Sigma, res.Fact11, res.SJF, res.SJG, res.K, res.Estimator)
		return
	}
	res.Print(os.Stdout)
}

// runServe runs the cached coordinator daemon until SIGINT/SIGTERM:
// warm the cache synchronously (a node being down at startup is logged,
// not fatal — its partitions fill in when it comes back), start the
// refresh loops, serve, then drain on signal.
func runServe(fx *coord.Fetcher, nodes, relations []string, listen string, refresh, maxStale time.Duration) {
	logger := log.New(os.Stderr, "joinctl: ", log.LstdFlags)
	d, err := coord.NewDaemon(coord.Config{
		Nodes:        nodes,
		Relations:    relations,
		Refresh:      refresh,
		MaxStaleness: maxStale,
		Fetcher:      fx,
		Logf:         logger.Printf,
	})
	if err != nil {
		logger.Fatal(err)
	}
	if err := d.Sweep(); err != nil {
		logger.Printf("startup sweep: %v (serving anyway; refresh loops will recover)", err)
	}
	d.Start()
	// Query bodies are tiny, so a full ReadTimeout is safe here; the
	// header timeout is what stops a slowloris client from pinning a
	// conn forever, and IdleTimeout reaps dead keep-alives.
	srv := &http.Server{
		Addr:              listen,
		Handler:           d.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Printf("serving %d relation(s) from %d node(s) on %s (refresh %v)",
		len(relations), len(nodes), listen, refresh)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		logger.Fatal(err)
	case s := <-sig:
		logger.Printf("%v: shutting down", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("shutdown: %v", err)
	}
	d.Stop()
}
