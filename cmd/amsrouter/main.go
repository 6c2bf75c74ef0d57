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
// driven by probes and ACK timeouts), bounded per-node queues with
// honest backpressure, failover of un-ACKed batches to the next live
// ring node — exact under AGMS linearity — and a rejoin audit that
// refuses a recovered node whose oplog disagrees with the router's
// acked ledger (quarantine; POST /v1/admin/forget accepts the node's
// state as a new baseline). POST /v1/admin/drain rebalances a node's
// data into its ring successor and retires it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"amstrack/internal/coord"
	"amstrack/internal/router"
	"amstrack/internal/wire"
)

func main() {
	var (
		addr     = flag.String("addr", ":7700", "HTTP listen address")
		wireAddr = flag.String("wire-addr", "", "amswire streaming-ingest listen address (empty: HTTP only)")
		nodes    = flag.String("nodes", "", "comma-separated amsd HTTP base URLs (required)")
		vnodes   = flag.Int("vnodes", 0, "virtual nodes per member (0: default 64)")
		queue    = flag.Int("queue", 0, "per-node in-flight queue depth in batches (0: default 128)")
		ackTo    = flag.Duration("ack-timeout", 0, "per-node ACK progress deadline (0: default 10s)")
		probe    = flag.Duration("probe-interval", 0, "health probe interval, jittered (0: default 1s)")
		budget   = flag.Int("failover-budget", 0, "max re-route hops per batch (0: default 4)")
		retries  = flag.Int("retries", 3, "admin-verb HTTP attempts per node request")
		backoff  = flag.Duration("retry-backoff", 200*time.Millisecond, "base admin-verb retry backoff")
	)
	flag.Parse()

	var members []string
	for _, n := range strings.Split(*nodes, ",") {
		if n = strings.TrimSpace(strings.TrimRight(n, "/")); n != "" {
			members = append(members, n)
		}
	}
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

// run serves until ctx cancels, then shuts down in ack-safety order:
// wire listener first (GOODBYE + drain every open stream, so upstream
// acks stay honest), then HTTP, then the router core (which barriers
// in-flight batches toward the fleet).
func run(ctx context.Context, opts router.Options, addr, wireAddr string, ready func(addr string)) error {
	rt, err := router.New(opts)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		rt.Close()
		return err
	}

	var (
		wireSrv *wire.Server
		wireLn  net.Listener
	)
	if wireAddr != "" {
		wireLn, err = net.Listen("tcp", wireAddr)
		if err != nil {
			ln.Close()
			rt.Close()
			return err
		}
		wireSrv = wire.NewServerSink(rt.Sink())
		go func() {
			if err := wireSrv.Serve(wireLn); err != nil && !errors.Is(err, wire.ErrServerClosed) {
				log.Printf("amsrouter: wire listener: %v", err)
			}
		}()
	}

	// Same slowloris posture as amsd: header timeout + idle reaping,
	// no full-body ReadTimeout (bulk HTTP ingests may be slow).
	srv := &http.Server{
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	if ready != nil {
		ready(ln.Addr().String())
	}

	errc := make(chan error, 1)
	go func() {
		if wireLn != nil {
			log.Printf("amsrouter: serving on %s + wire %s, %d node(s)", ln.Addr(), wireLn.Addr(), len(opts.Nodes))
		} else {
			log.Printf("amsrouter: serving on %s, %d node(s)", ln.Addr(), len(opts.Nodes))
		}
		errc <- srv.Serve(ln)
	}()

	select {
	case err := <-errc:
		if wireSrv != nil {
			wireSrv.Close()
		}
		rt.Close()
		return err
	case <-ctx.Done():
	}

	log.Print("amsrouter: shutting down")
	if wireSrv != nil {
		if err := wireSrv.Close(); err != nil {
			log.Printf("amsrouter: wire shutdown: %v", err)
		}
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		log.Printf("amsrouter: shutdown: %v", err)
	}
	return rt.Close()
}
