// Command amsd serves the synopsis engine over HTTP JSON — the paper's
// §5 deployment: a long-lived daemon maintaining per-relation synopses
// under a continuous update stream and answering join/self-join size
// estimates at planning time.
//
// Usage:
//
//	amsd -addr :7600 -dir /var/lib/amsd -k 1024
//
// Every relation's join signature is the bucketed fast signature of -k
// words in -rows rows; the paper's flat signature is not served, and a
// bundle carrying one is refused with 409 Conflict.
//
// With -dir the engine is durable: every applied update is
// group-committed to a per-relation oplog, and a restart recovers by
// checkpoint load plus log replay — including truncating a torn final
// record after a crash.
// Checkpoints come from three places: POST /v1/checkpoint on demand, the
// engine's background checkpointer (-checkpoint-every fires on a
// jittered timer, -checkpoint-segments fires when any relation's live
// oplog segment count reaches the threshold), and a final checkpoint cut
// during graceful shutdown. Without -dir the engine is in-memory only.
//
// On SIGTERM/SIGINT the daemon stops accepting connections, drains
// in-flight requests, cuts a final checkpoint so restart recovery is
// instant (empty logs), and closes the engine. If that final checkpoint
// fails the process exits non-zero — the operator must know the last
// moments of the stream were not made durable.
//
// The write path is one sequencer per relation in front of the engine's
// lock-free absorbers: each ingest batch is logged whole, in arrival
// order, then per-shard absorber goroutines apply it. Records collect
// in the log writer's buffer and reach the OS at the barrier every
// acknowledgement waits for (an HTTP ingest's response, an amswire
// ACK). Queries drain staged ops first, so responses always reflect the
// request's own writes.
// -segment-ops N additionally rolls each relation's oplog onto numbered
// segment files once a segment holds N rows, between records (one per
// batch), bounding single-file recovery reads between checkpoints. Checkpoints are pause-free: the cut rides an
// epoch fence through each relation's sequencer instead of quiescing
// ingest. DESIGN.md §7 and §9 document
// the write path, the checkpoint, and their measured cost.
//
// -wire-addr (default :7601) serves amswire, the length-prefixed binary
// streaming-ingest protocol (internal/wire), beside the HTTP listener.
// It is always on: amsrouter sends rows to a node only over amswire and
// refuses a member that advertises no wire listener, so an empty
// -wire-addr is rejected. Both surfaces feed the same engine: bulk
// loaders stream pipelined binary batches over the wire port, while
// control-plane calls (define, estimate, checkpoint) stay on HTTP JSON.
// The /healthz body carries a "wire" block with the listener address and
// its connection/batch/row counters. On shutdown the wire listener closes FIRST — every open
// stream gets a GOODBYE frame and its staged batches are drained —
// before HTTP drains and the final checkpoint is cut, so the durability
// story above extends to open streams. DESIGN.md §10 documents the
// protocol and its tuning.
//
// See internal/amsd for the endpoint reference, examples/amsdclient for
// a complete HTTP client round trip, and examples/wireclient for the
// streaming-ingest counterpart.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"amstrack/internal/amsd"
	"amstrack/internal/engine"
	"amstrack/internal/wire"
)

func main() {
	var (
		addr      = flag.String("addr", ":7600", "listen address")
		wireAddr  = flag.String("wire-addr", ":7601", "amswire binary streaming-ingest listen address (required: amsrouter sends rows only over amswire)")
		dir       = flag.String("dir", "", "durability directory (empty: in-memory engine)")
		k         = flag.Int("k", 1024, "join-signature size in memory words per relation")
		chainK    = flag.Int("chain-words", 0, "chain-signature size in memory words (0: same as -k)")
		rows      = flag.Int("rows", 0, "fast-signature rows (0: auto; per-update cost knob)")
		seed      = flag.Uint64("seed", 42, "master hash-family seed")
		shards    = flag.Int("shards", 0, "per-relation ingest shards (0: default)")
		noSketch  = flag.Bool("nosketch", false, "disable the dedicated self-join sketch")
		sketchS1  = flag.Int("sketch-s1", 0, "self-join sketch buckets per row (0: default)")
		sketchS2  = flag.Int("sketch-s2", 0, "self-join sketch rows (0: default)")
		ckptEvery = flag.Duration("checkpoint-every", 0, "background checkpoint interval, jittered (0: no timer; needs -dir)")
		ckptSegs  = flag.Int("checkpoint-segments", 0, "checkpoint when a relation's live oplog segments reach N (0: no segment trigger; needs -dir)")
		maxBodyMB = flag.Int64("max-body-mb", 0, "request-body cap in MiB for ingest and bundle uploads (0: default 64)")
		segOps    = flag.Int64("segment-ops", 0, "roll each relation's oplog onto a numbered segment once it holds N rows, between records (0: off)")
	)
	flag.Parse()

	opts := engine.Options{
		SignatureWords:     *k,
		ChainWords:         *chainK,
		Seed:               *seed,
		SignatureRows:      *rows,
		SketchS1:           *sketchS1,
		SketchS2:           *sketchS2,
		NoSketch:           *noSketch,
		Shards:             *shards,
		Dir:                *dir,
		SegmentOps:         *segOps,
		CheckpointInterval: *ckptEvery,
		CheckpointSegments: *ckptSegs,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opts, *addr, *wireAddr, *maxBodyMB<<20, nil); err != nil {
		fmt.Fprintln(os.Stderr, "amsd:", err)
		os.Exit(1)
	}
}

// run serves until ctx is cancelled, then shuts down gracefully through
// amsd.Serve: close the wire listener (GOODBYE to every open stream),
// stop accepting HTTP, drain in-flight requests, final checkpoint,
// close. The returned error is the process exit status — a failed final
// checkpoint is an error even though the daemon otherwise exited
// cleanly. ready, if non-nil, is called with the bound HTTP listen
// address (tests use :0); the bound wire address is reported under
// /healthz "wire".
func run(ctx context.Context, opts engine.Options, addr, wireAddr string, maxBody int64, ready func(addr string)) error {
	if wireAddr == "" {
		return errors.New("-wire-addr must not be empty: amsrouter sends rows only over amswire")
	}
	if (opts.CheckpointInterval > 0 || opts.CheckpointSegments > 0) && opts.Dir == "" {
		return errors.New("-checkpoint-every / -checkpoint-segments require -dir")
	}
	var (
		eng *engine.Engine
		err error
	)
	if opts.Dir != "" {
		eng, err = engine.Open(opts)
	} else {
		eng, err = engine.New(opts)
	}
	if err != nil {
		return err
	}
	log.Printf("amsd: durable: %v, k=%d", opts.Dir != "", opts.SignatureWords)
	return amsd.Serve(ctx, amsd.Daemon{
		Name:     "amsd",
		Addr:     addr,
		Handler:  amsd.NewServerMaxBody(eng, maxBody),
		WireAddr: wireAddr,
		Sink:     wire.EngineSink(eng),
		Close: func() error {
			var firstErr error
			if eng.Dir() != "" {
				// Final checkpoint so restart recovery is instant (empty logs).
				if _, err := eng.Checkpoint(); err != nil {
					firstErr = fmt.Errorf("final checkpoint: %w", err)
				}
			}
			if err := eng.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			return firstErr
		},
		Ready: ready,
	})
}
