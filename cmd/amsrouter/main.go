// Command amsrouter is the partitioned-ingest tier: a stateless daemon
// that fronts a fleet of amsd nodes, hashing each row's primary
// attribute onto a deterministic consistent-hash ring and streaming it
// to the owning node over the amswire protocol — its only data path, so
// every member must run amsd's wire listener (a member that advertises
// none fails its health probe and is never routed to). Upstream it
// serves the same two surfaces a
// single amsd node does — HTTP JSON on -addr and amswire on -wire-addr
// — so existing loaders point at the router unchanged and the fleet
// behaves like one large node.
//
// Usage:
//
//	amsrouter -addr :7700 -wire-addr :7701 \
//	    -nodes http://n1:7600,http://n2:7600,http://n3:7600
//
// Robustness is the router's whole job (internal/router and DESIGN.md
// §12 document the invariants): per-node health (healthy/suspect/down,
// driven by probes and ACK timeouts), one bounded queue per node — its
// amswire ack window, -queue sub-batches — with honest backpressure,
// failover of un-ACKed batches to the next live
// ring node — exact under AGMS linearity — and a rejoin audit that
// refuses a recovered node whose oplog disagrees with the router's
// acked ledger (quarantine; POST /v1/admin/forget accepts the node's
// state as a new baseline). POST /v1/admin/drain rebalances a node's
// data into its ring successor and retires it.
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

	"amstrack/internal/amsd"
	"amstrack/internal/coord"
	"amstrack/internal/router"
)

func main() {
	var (
		addr     = flag.String("addr", ":7700", "HTTP listen address")
		wireAddr = flag.String("wire-addr", "", "amswire streaming-ingest listen address (empty: HTTP only)")
		nodes    = flag.String("nodes", "", "comma-separated amsd HTTP base URLs (required)")
		vnodes   = flag.Int("vnodes", 0, "virtual nodes per member (0: default 64)")
		queue    = flag.Int("queue", 0, "per-node amswire ack window: sub-batches sent and not yet acked (0: default 128)")
		ackTo    = flag.Duration("ack-timeout", 0, "per-node ACK progress deadline (0: default 10s)")
		probe    = flag.Duration("probe-interval", 0, "health probe interval, jittered (0: default 1s)")
		budget   = flag.Int("failover-budget", 0, "max re-route hops per batch (0: default 4)")
		retries  = flag.Int("retries", 3, "admin-verb HTTP attempts per node request")
		backoff  = flag.Duration("retry-backoff", 200*time.Millisecond, "base admin-verb retry backoff")
	)
	flag.Parse()

	members := coord.SplitNodes(*nodes)
	if len(members) == 0 {
		fmt.Fprintln(os.Stderr, "amsrouter: -nodes is required")
		os.Exit(1)
	}

	client := &http.Client{Timeout: 30 * time.Second}
	opts := router.Options{
		Nodes:          members,
		VNodes:         *vnodes,
		QueueDepth:     *queue,
		AckTimeout:     *ackTo,
		ProbeInterval:  *probe,
		FailoverBudget: *budget,
		Client:         client,
		Fetcher:        coord.NewFetcher(client, *retries, *backoff),
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opts, *addr, *wireAddr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "amsrouter:", err)
		os.Exit(1)
	}
}

// run serves until ctx cancels, then shuts down through amsd.Serve in
// ack-safety order: wire listener first (GOODBYE + drain every open
// stream, so upstream acks stay honest), then HTTP, then the router core
// (which barriers in-flight batches toward the fleet).
func run(ctx context.Context, opts router.Options, addr, wireAddr string, ready func(addr string)) error {
	rt, err := router.New(opts)
	if err != nil {
		return err
	}
	log.Printf("amsrouter: %d node(s)", len(opts.Nodes))
	return amsd.Serve(ctx, amsd.Daemon{
		Name:     "amsrouter",
		Addr:     addr,
		Handler:  rt.Handler(),
		WireAddr: wireAddr,
		Sink:     rt.Sink(),
		Close:    rt.Close,
		Ready:    ready,
	})
}
