package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"amstrack/internal/amsd"
	"amstrack/internal/coord"
	"amstrack/internal/engine"
	"amstrack/internal/oplog"
	"amstrack/internal/router"
	"amstrack/internal/wire"
)

// The system under test, hosted in-process from the repository's
// packages and wired the way cmd/amsd, cmd/amsrouter and joinctl -serve
// wire them, on 127.0.0.1 listeners.

// nodeOptions is the amsd default node shape (k=1024 fast signature,
// 1024×8 Fast-AMS sketch, seed 42, absorber ingest) with the durability
// an operator runs: 1M-record oplog segments, a checkpoint every 4
// segments or 5 s, and the default group commit (512 ops / 200 µs; an
// ACK means the records are OS-owned, fsync runs on segment seal and
// checkpoint).
func nodeOptions(dir string, fs oplog.FS) engine.Options {
	return engine.Options{
		SignatureWords:     1024,
		Seed:               42,
		IngestMode:         engine.IngestAbsorber,
		Dir:                dir,
		SegmentOps:         1 << 20,
		CheckpointSegments: 4,
		CheckpointInterval: 5 * time.Second,
		FS:                 fs,
	}
}

// node is one durable amsd: engine, HTTP API and amswire listener.
type node struct {
	opts     engine.Options
	eng      *engine.Engine
	base     string // http://127.0.0.1:port
	wireAddr string
	httpSrv  *http.Server
	wireSrv  *wire.Server
	wg       sync.WaitGroup
	stopped  bool // listeners closed
	closed   bool // engine closed
}

func startNode(dir string, tr *tracer) (*node, error) {
	var fs oplog.FS
	if tr != nil {
		fs = tr.fs.wrap(oplog.OSFS)
	}
	n := &node{opts: nodeOptions(dir, fs)}
	eng, err := engine.Open(n.opts)
	if err != nil {
		return nil, fmt.Errorf("open node: %w", err)
	}
	n.eng = eng
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, err
	}
	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		httpLn.Close()
		eng.Close()
		return nil, err
	}
	n.base = "http://" + httpLn.Addr().String()
	n.wireAddr = wireLn.Addr().String()

	api := amsd.NewServer(eng)
	if tr == nil {
		n.wireSrv = wire.NewServer(eng)
	} else {
		n.wireSrv = wire.NewServerSink(tr.engine.wrap(wire.EngineSink(eng)))
	}
	api.SetWireStatus(func() amsd.WireStatus {
		st := n.wireSrv.Stats()
		return amsd.WireStatus{Addr: n.wireAddr, Conns: st.Conns, TotalConns: st.TotalConns,
			Batches: st.Batches, Rows: st.Rows, Flushes: st.Flushes, Errors: st.Errors}
	})
	var h http.Handler = api
	if tr != nil {
		h = tr.amsd.wrap(api)
	}
	n.httpSrv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	serve(&n.wg, func() error { return n.wireSrv.Serve(wireLn) }, wire.ErrServerClosed)
	serve(&n.wg, func() error { return n.httpSrv.Serve(httpLn) }, http.ErrServerClosed)
	return n, nil
}

// serve runs a listener loop on its own goroutine; wg waits for it.
func serve(wg *sync.WaitGroup, fn func() error, closed error) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := fn(); err != nil && !errors.Is(err, closed) {
			logf("listener: %v", err)
		}
	}()
}

// stop closes the listeners (wire first, as amsd does) and waits for
// their goroutines. The engine stays open.
func (n *node) stop() {
	if n.stopped {
		return
	}
	n.stopped = true
	_ = n.wireSrv.Close()
	_ = n.httpSrv.Close()
	n.wg.Wait()
}

func (n *node) close() {
	n.stop()
	if !n.closed {
		n.closed = true
		_ = n.eng.Close()
	}
}

// rows is the node's total row count over the named relations.
func (n *node) rows(names []string) (int64, error) {
	var total int64
	for _, name := range names {
		rel, err := n.eng.Get(name)
		if err != nil {
			return 0, err
		}
		total += rel.Len()
	}
	return total, nil
}

func (n *node) exportBytes(names []string) (int, error) {
	total := 0
	for _, name := range names {
		b, err := n.eng.ExportRelation(name)
		if err != nil {
			return 0, err
		}
		total += len(b)
	}
	return total, nil
}

// restart closes the node and recovers it from its directory with
// engine.Open; every relation's recovered export must equal the bytes
// the closed engine exports. It returns how long Open took.
func (n *node) restart(names []string) (time.Duration, error) {
	n.stop()
	n.closed = true
	if err := n.eng.Close(); err != nil {
		return 0, fmt.Errorf("close: %w", err)
	}
	before := make([][]byte, len(names))
	for i, name := range names {
		b, err := n.eng.ExportRelation(name)
		if err != nil {
			return 0, err
		}
		before[i] = b
	}
	t0 := time.Now()
	eng, err := engine.Open(n.opts)
	took := time.Since(t0)
	if err != nil {
		return took, fmt.Errorf("recover: %w", err)
	}
	defer eng.Close()
	for i, name := range names {
		b, err := eng.ExportRelation(name)
		if err != nil {
			return took, fmt.Errorf("recovered %s: %w", name, err)
		}
		if !bytes.Equal(b, before[i]) {
			return took, fmt.Errorf("relation %s: recovered export differs (%d vs %d bytes)", name, len(b), len(before[i]))
		}
	}
	return took, nil
}

// front is the router with its own amswire listener upstream, as
// amsrouter -wire-addr serves it.
type front struct {
	rt   *router.Router
	srv  *wire.Server
	addr string
	wg   sync.WaitGroup
}

func startFront(nodes []*node, tr *tracer) (*front, error) {
	bases := make([]string, len(nodes))
	for i, n := range nodes {
		bases[i] = n.base
	}
	client := &http.Client{Timeout: 30 * time.Second}
	rt, err := router.New(router.Options{
		Nodes:   bases,
		Client:  client,
		Fetcher: coord.NewFetcher(client, 3, 200*time.Millisecond),
	})
	if err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rt.Close()
		return nil, err
	}
	f := &front{rt: rt, addr: ln.Addr().String()}
	if tr == nil {
		f.srv = wire.NewServerSink(rt.Sink())
	} else {
		f.srv = wire.NewServerSink(tr.router.wrap(rt.Sink()))
	}
	serve(&f.wg, func() error { return f.srv.Serve(ln) }, wire.ErrServerClosed)
	return f, nil
}

func (f *front) close() {
	_ = f.srv.Close()
	f.wg.Wait()
	_ = f.rt.Close()
}

// coordHost is the cached coordinator (joinctl -serve) on a listener.
type coordHost struct {
	d    *coord.Daemon
	srv  *http.Server
	base string
	wg   sync.WaitGroup
}

// startCoord warms the daemon's cache with one sweep; refresh > 0 also
// starts its background refresh loops.
func startCoord(nodes []*node, rels []string, refresh time.Duration, tr *tracer) (*coordHost, error) {
	bases := make([]string, len(nodes))
	for i, n := range nodes {
		bases[i] = n.base
	}
	var rtt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 4}
	if tr != nil {
		rtt = tr.fetch.wrap(rtt)
	}
	d, err := coord.NewDaemon(coord.Config{
		Nodes:     bases,
		Relations: rels,
		Refresh:   refresh,
		Fetcher:   coord.NewFetcher(&http.Client{Timeout: 10 * time.Second, Transport: rtt}, 3, 100*time.Millisecond),
	})
	if err != nil {
		return nil, fmt.Errorf("coord: %w", err)
	}
	if err := d.Sweep(); err != nil {
		return nil, fmt.Errorf("coord warm-up: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &coordHost{d: d, base: "http://" + ln.Addr().String()}
	var h http.Handler = d.Handler()
	if tr != nil {
		h = tr.coord.wrap(h)
	}
	c.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	serve(&c.wg, func() error { return c.srv.Serve(ln) }, http.ErrServerClosed)
	if refresh > 0 {
		d.Start()
	}
	return c, nil
}

func (c *coordHost) close() {
	c.d.Stop()
	_ = c.srv.Close()
	c.wg.Wait()
}
