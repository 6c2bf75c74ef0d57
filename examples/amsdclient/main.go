// Example amsdclient: a complete client round trip against the amsd
// synopsis daemon — the paper's §5 deployment loop as three HTTP verbs.
//
// The example is self-contained: it starts an in-process amsd server on
// an ephemeral port (a durable engine in a temp directory), then talks to
// it exactly as a remote client would — define relations, stream batched
// updates, ask for self-join and join estimates with the paper's bounds
// attached, trigger a checkpoint — and finally restarts the engine from
// disk to show that recovery reproduces the served estimates.
//
// Run with:
//
//	go run ./examples/amsdclient
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"amstrack/internal/amsd"
	"amstrack/internal/engine"
	"amstrack/internal/xrand"
)

func main() {
	dir, err := os.MkdirTemp("", "amsdclient")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	opts := engine.Options{SignatureWords: 1024, Seed: 7, Dir: dir}
	eng, err := engine.Open(opts)
	if err != nil {
		log.Fatal(err)
	}

	// Serve on an ephemeral localhost port, like a real daemon would.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: amsd.NewServer(eng)}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("amsd serving on %s\n", base)

	// --- client side: nothing below touches the engine directly ---

	// One shared client for the whole session: keep-alives mean the
	// batched ingest loop below reuses a single TCP connection instead of
	// paying a dial per POST.
	hc := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	defer hc.CloseIdleConnections()

	// Cap every response read: even against a trusted daemon, a client
	// should bound what it is willing to buffer — the wrong process on
	// the right port must fail loudly, not exhaust memory.
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
	get := func(path string, out any) {
		resp, err := hc.Get(base + path)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			log.Fatalf("GET %s: %s", path, resp.Status)
		}
		if err := json.NewDecoder(io.LimitReader(resp.Body, maxResponse)).Decode(out); err != nil {
			log.Fatal(err)
		}
	}

	for _, name := range []string{"orders", "lineitems"} {
		post("/v1/relations", amsd.DefineRequest{Name: name}, nil)
	}

	// Stream updates in batches: orders uniform, lineitems skewed, over a
	// shared key domain so the join is substantial.
	r := xrand.New(99)
	zipf := xrand.NewZipf(r, 1.0, 400)
	for batch := 0; batch < 10; batch++ {
		ovs := make([]uint64, 2000)
		lvs := make([]uint64, 2000)
		for i := range ovs {
			ovs[i] = r.Uint64n(400)
			lvs[i] = uint64(zipf.Next())
		}
		post("/v1/ingest", amsd.IngestRequest{Relation: "orders", Inserts: ovs}, nil)
		post("/v1/ingest", amsd.IngestRequest{Relation: "lineitems", Inserts: lvs}, nil)
	}

	var sj amsd.SelfJoinBody
	get("/v1/selfjoin?relation=lineitems", &sj)
	fmt.Printf("lineitems: n=%d, self-join (skew) estimate %.4g\n", sj.Len, sj.Estimate)

	var jb amsd.JoinBody
	get("/v1/join?f=orders&g=lineitems", &jb)
	fmt.Printf("orders ⋈ lineitems: estimate %.4g  (±σ %.3g, Fact 1.1 bound %.4g)\n",
		jb.Estimate, jb.Sigma, jb.Fact11)

	var cb amsd.CheckpointBody
	post("/v1/checkpoint", nil, &cb)
	fmt.Printf("checkpoint written: %d bytes\n", cb.Bytes)

	// --- restart: recovery must reproduce the served estimate ---
	srv.Close()
	if err := eng.Close(); err != nil {
		log.Fatal(err)
	}
	back, err := engine.Open(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer back.Close()
	je, err := back.EstimateJoin("orders", "lineitems")
	if err != nil {
		log.Fatal(err)
	}
	same := je.Estimate == jb.Estimate
	fmt.Printf("after restart: estimate %.4g (identical to served answer: %v)\n", je.Estimate, same)
}
