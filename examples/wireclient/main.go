// Example wireclient: bulk loading over amswire, the binary
// streaming-ingest protocol, against a live amsd-style daemon.
//
// The example is self-contained: it starts an in-process engine serving
// BOTH surfaces on ephemeral localhost ports — HTTP JSON for the control
// plane (define, estimate) and amswire for the data plane — then plays
// the intended division of labor: relations are defined over HTTP, the
// update stream flows over the wire as pipelined binary batch frames
// (acked asynchronously, no per-batch round trip), a FLUSH buys
// read-your-writes, and the estimates are asked for over HTTP again. At
// the end it races the two ingest paths over the same row budget to show
// why the wire port exists.
//
// Run with:
//
//	go run ./examples/wireclient
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"amstrack/internal/amsd"
	"amstrack/internal/engine"
	"amstrack/internal/wire"
	"amstrack/internal/xrand"
)

func main() {
	eng, err := engine.New(engine.Options{SignatureWords: 1024, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// HTTP control plane + amswire data plane, one engine underneath.
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: amsd.NewServer(eng)}
	go srv.Serve(httpLn)
	defer srv.Close()

	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	wsrv := wire.NewServer(eng)
	go wsrv.Serve(wireLn)
	defer wsrv.Close()

	base := "http://" + httpLn.Addr().String()
	fmt.Printf("amsd serving HTTP on %s, amswire on %s\n", base, wireLn.Addr())

	// --- client side: nothing below touches the engine directly ---

	// One shared keep-alive client for the control plane AND the HTTP
	// contrast run below — the JSON loop reuses its connection, so the
	// wire-vs-HTTP race measures encoding + request cycle, not dials.
	hc := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	defer hc.CloseIdleConnections()

	// Cap every response read — a client should bound what it buffers
	// even from a trusted daemon.
	const maxResponse = 64 << 20

	post := func(path string, body, out any) {
		raw, _ := json.Marshal(body)
		resp, err := hc.Post(base+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			log.Fatalf("POST %s: %s", path, resp.Status)
		}
		if out != nil {
			if err := json.NewDecoder(io.LimitReader(resp.Body, maxResponse)).Decode(out); err != nil {
				log.Fatal(err)
			}
		}
	}

	for _, name := range []string{"orders", "lineitems"} {
		post("/v1/relations", amsd.DefineRequest{Name: name}, nil)
	}

	// Data plane: one wire client, two pooled connections, pipelined
	// batches. Close flushes, so every batch below is durable-applied
	// before the estimates are read.
	wc, err := wire.Dial(wireLn.Addr().String(), wire.Options{Conns: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wire handshake: server ingest mode %q\n", wc.IngestMode())

	// Pre-generate the batches (uniform orders, zipf-skewed lineitems) so
	// the timings below measure transport + engine, not the generator.
	r := xrand.New(99)
	zipf := xrand.NewZipf(r, 1.0, 400)
	const batches, batchRows = 200, 1000
	obs := make([][]uint64, batches)
	lbs := make([][]uint64, batches)
	for b := range obs {
		obs[b] = make([]uint64, batchRows)
		lbs[b] = make([]uint64, batchRows)
		for i := 0; i < batchRows; i++ {
			obs[b][i] = r.Uint64n(400)
			lbs[b][i] = uint64(zipf.Next())
		}
	}

	start := time.Now()
	for b := 0; b < batches; b++ {
		// The client encodes straight from these slices; they are free to
		// be reused as soon as the call returns.
		if err := wc.InsertBatch("orders", obs[b]); err != nil {
			log.Fatal(err)
		}
		if err := wc.InsertBatch("lineitems", lbs[b]); err != nil {
			log.Fatal(err)
		}
	}
	if err := wc.Flush(); err != nil { // read-your-writes barrier
		log.Fatal(err)
	}
	wireDur := time.Since(start)
	rows := int64(2 * batches * batchRows)
	fmt.Printf("streamed %d rows in %v (%.0f ns/row, %.2f Mrows/s)\n",
		rows, wireDur.Round(time.Millisecond),
		float64(wireDur.Nanoseconds())/float64(rows),
		float64(rows)/wireDur.Seconds()/1e6)

	// Control plane reads its own writes after the flush.
	var jb amsd.JoinBody
	resp, err := hc.Get(base + "/v1/join?f=orders&g=lineitems")
	if err != nil {
		log.Fatal(err)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxResponse)).Decode(&jb); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("orders ⋈ lineitems: estimate %.4g  (±σ %.3g, Fact 1.1 bound %.4g)\n",
		jb.Estimate, jb.Sigma, jb.Fact11)

	// The same row budget over HTTP JSON, for contrast: every batch pays
	// a request cycle, a JSON encode, and a decode.
	start = time.Now()
	for b := 0; b < batches; b++ {
		post("/v1/ingest", amsd.IngestRequest{Relation: "orders", Inserts: obs[b]}, nil)
	}
	httpDur := time.Since(start)
	hrows := int64(batches * batchRows)
	fmt.Printf("HTTP JSON: %d rows in %v (%.0f ns/row) — wire is %.1fx faster per row\n",
		hrows, httpDur.Round(time.Millisecond),
		float64(httpDur.Nanoseconds())/float64(hrows),
		(float64(httpDur.Nanoseconds())/float64(hrows))/(float64(wireDur.Nanoseconds())/float64(rows)))

	if err := wc.Close(); err != nil {
		log.Fatal(err)
	}
}
