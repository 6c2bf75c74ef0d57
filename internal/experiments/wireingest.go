package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"amstrack/internal/amsd"
	"amstrack/internal/dist"
	"amstrack/internal/engine"
	"amstrack/internal/tablefmt"
	"amstrack/internal/wire"
	"amstrack/internal/xrand"
)

// This file races the daemon's two ingest surfaces end-to-end — real TCP
// listeners, real clients — one layer above the engine. The HTTP JSON
// path pays a request cycle per batch (client encode, server decode into
// pooled scratch, drain, response); the amswire path streams
// length-prefixed binary batch frames with pipelined ACKs, so the
// request round trip disappears and the server's drain amortizes over
// the pipeline window. The GATED metric is the 4-client uniform ratio
// wire/http measured in the same process: the HTTP loop doubles as a
// machine-speed probe, so the number survives runner-hardware variance.
// The acceptance bar from the wire PR: wire at least 3x the HTTP JSON
// rows/sec at 4 concurrent clients.

// WireIngestRow is one measured cell of the transport sweep.
type WireIngestRow struct {
	Transport  string  `json:"transport"` // "http" or "wire"
	Clients    int     `json:"clients"`
	Dist       string  `json:"dist"` // "uniform" or "zipf"
	NsPerRow   float64 `json:"ns_per_row"`
	RowsPerSec float64 `json:"rows_per_sec"`
}

// WireIngestResult carries the gated headline and the sweep.
type WireIngestResult struct {
	Experiment string `json:"experiment"`
	K          int    `json:"k"`
	BatchRows  int    `json:"batch_rows"`

	// 4 concurrent clients, uniform keys — the gate pair.
	HTTPNsPerRow float64 `json:"http_ns_per_row"`
	WireNsPerRow float64 `json:"wire_ns_per_row"`
	Speedup      float64 `json:"speedup"`

	Rows []WireIngestRow `json:"rows"`
}

const (
	wireIngestBatch   = 512 // rows per batch frame / POST body
	wireIngestClients = 4   // the gated concurrency level
)

// RunWireIngest measures end-to-end ingest cost of the HTTP JSON and
// amswire transports at signature size k, across client counts
// {1, wireIngestClients} and uniform vs zipf(1.2) keys. Both transports
// drive the same in-memory engine shape through real localhost
// listeners; every timed run ends with the transport's read-your-writes
// barrier (the POST response itself for HTTP, FLUSH for wire), so
// staged ops cannot flatter the wire numbers.
func RunWireIngest(k int, seed uint64) (*WireIngestResult, error) {
	res := &WireIngestResult{Experiment: "wireingest", K: k, BatchRows: wireIngestBatch}
	for _, transport := range []string{"http", "wire"} {
		for _, clients := range []int{1, wireIngestClients} {
			for _, d := range []string{"uniform", "zipf"} {
				ns, err := timeWireIngest(k, transport, clients, d, seed)
				if err != nil {
					return nil, err
				}
				res.Rows = append(res.Rows, WireIngestRow{
					Transport:  transport,
					Clients:    clients,
					Dist:       d,
					NsPerRow:   ns,
					RowsPerSec: 1e9 / ns,
				})
				if clients == wireIngestClients && d == "uniform" {
					switch transport {
					case "http":
						res.HTTPNsPerRow = ns
					case "wire":
						res.WireNsPerRow = ns
					}
				}
			}
		}
	}
	if res.WireNsPerRow > 0 {
		res.Speedup = res.HTTPNsPerRow / res.WireNsPerRow
	}
	return res, nil
}

// wireIngestStreams pre-generates each client's batch rotation so the
// timed loops measure transport + engine, not the generator.
func wireIngestStreams(clients int, distName string, seed uint64) ([][][]uint64, error) {
	const rotation = 8 // distinct batches per client, reused round-robin
	streams := make([][][]uint64, clients)
	for c := range streams {
		batches := make([][]uint64, rotation)
		switch distName {
		case "uniform":
			r := xrand.New(seed + uint64(c)*31)
			for b := range batches {
				vals := make([]uint64, wireIngestBatch)
				for i := range vals {
					vals[i] = r.Uint64n(1 << 16)
				}
				batches[b] = vals
			}
		case "zipf":
			z, err := dist.NewZipf(1.2, 1<<16, seed+uint64(c)*31)
			if err != nil {
				return nil, err
			}
			for b := range batches {
				vals := make([]uint64, wireIngestBatch)
				for i := range vals {
					vals[i] = z.Next()
				}
				batches[b] = vals
			}
		default:
			return nil, fmt.Errorf("experiments: unknown distribution %q", distName)
		}
		streams[c] = batches
	}
	return streams, nil
}

// timeWireIngest measures steady-state ns/row for one configuration:
// clients goroutines streaming wireIngestBatch-row insert batches into
// one relation over a real localhost listener until enough wall time
// accumulates.
func timeWireIngest(k int, transport string, clients int, distName string, seed uint64) (float64, error) {
	// NoSketch: this experiment scores TRANSPORTS, so the engine shape is
	// deliberately light — with the default 1024x8 self-join sketch the
	// per-row hash loop dominates both paths equally and compresses the
	// contrast the gate is meant to watch.
	eng, err := engine.New(engine.Options{SignatureWords: k, Seed: seed, NoSketch: true})
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	if _, err := eng.Define("r"); err != nil {
		return 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	addr := ln.Addr().String()

	streams, err := wireIngestStreams(clients, distName, seed)
	if err != nil {
		_ = ln.Close()
		return 0, err
	}

	// send(c, batch) must apply-or-error; barrier(c) is the client's
	// read-your-writes close-out inside the timed region.
	var send func(c int, vals []uint64) error
	barrier := func(int) error { return nil }
	switch transport {
	case "http":
		srv := &http.Server{Handler: amsd.NewServer(eng)}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		// One http.Client per simulated client, each with a keep-alive
		// connection of its own — N loaders, not one pooled proxy.
		hcs := make([]*http.Client, clients)
		for c := range hcs {
			hcs[c] = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{}}
		}
		url := "http://" + addr + "/v1/ingest"
		send = func(c int, vals []uint64) error {
			raw, err := json.Marshal(amsd.IngestRequest{Relation: "r", Inserts: vals})
			if err != nil {
				return err
			}
			resp, err := hcs[c].Post(url, "application/json", bytes.NewReader(raw))
			if err != nil {
				return err
			}
			_, _ = io.Copy(io.Discard, resp.Body) // drain so the conn is reused
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("POST /v1/ingest: %s", resp.Status)
			}
			return nil
		}
	case "wire":
		wsrv := wire.NewServer(eng)
		go func() { _ = wsrv.Serve(ln) }()
		defer wsrv.Close()
		wcs := make([]*wire.Client, clients)
		for c := range wcs {
			wc, err := wire.Dial(addr, wire.Options{Conns: 1})
			if err != nil {
				return 0, err
			}
			defer wc.Close()
			wcs[c] = wc
		}
		send = func(c int, vals []uint64) error { return wcs[c].InsertBatch("r", vals) }
		barrier = func(c int) error { return wcs[c].Flush() }
	default:
		_ = ln.Close()
		return 0, fmt.Errorf("experiments: unknown transport %q", transport)
	}

	// Warm up: one batch and a barrier per client (dials, handshakes,
	// HTTP keep-alive conns, staging buffers).
	for c := 0; c < clients; c++ {
		if err := send(c, streams[c][0]); err != nil {
			return 0, err
		}
		if err := barrier(c); err != nil {
			return 0, err
		}
	}

	const minDuration = 80 * time.Millisecond
	var (
		stop   = make(chan struct{})
		counts = make([]int64, clients)
		errs   = make([]error, clients)
		wg     sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			batches := streams[c]
			n := int64(0)
			for b := 0; ; b++ {
				select {
				case <-stop:
					counts[c] = n
					errs[c] = barrier(c)
					return
				default:
				}
				if err := send(c, batches[b%len(batches)]); err != nil {
					errs[c] = err
					counts[c] = n
					return
				}
				n += wireIngestBatch
			}
		}(c)
	}
	time.Sleep(minDuration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	var total int64
	for c := 0; c < clients; c++ {
		if errs[c] != nil {
			return 0, fmt.Errorf("experiments: %s client %d: %w", transport, c, errs[c])
		}
		total += counts[c]
	}
	if total == 0 {
		return 0, fmt.Errorf("experiments: no rows completed in %v", elapsed)
	}
	return float64(elapsed.Nanoseconds()) / float64(total), nil
}

// Table renders the sweep for amsbench's aligned-text output.
func (r *WireIngestResult) Table() *tablefmt.Table {
	t := tablefmt.New("transport", "clients", "keys", "ns/row", "Mrows/s")
	for _, row := range r.Rows {
		t.AddRow(row.Transport, row.Clients, row.Dist, row.NsPerRow, row.RowsPerSec/1e6)
	}
	return t
}

// JSON serializes the result for machine consumption (BENCH_wire.json).
func (r *WireIngestResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
