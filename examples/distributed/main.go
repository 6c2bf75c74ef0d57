// Distributed join estimation: the AGMS synopses are linear functions of
// the frequency vector, so per-partition synopses built on separate
// nodes merge into EXACTLY the synopses of the whole relation. This
// example runs the full multi-node path amsd and the coordinator
// (internal/coord) expose:
//
//  1. two amsd "nodes" (in-process HTTP servers over independent
//     engines sharing Seed and shape options) each ingest half of a
//     partitioned relation pair — skewed orders, flatter lineitems;
//  2. the coordinator pulls each relation's synopsis BUNDLE (join
//     signature + Fast-AMS self-join sketch + row count) from both
//     nodes via GET /v1/signatures/{name} and merges the partitions
//     (coord.MergeAcross): the merged bundle is byte-identical to a
//     single engine's export of ALL the data;
//  3. the coordinated join estimate (coord.Coordinate) — and the Lemma
//     4.4 σ bound attached to it — matches that single engine bit for
//     bit, not approximately;
//  4. a cached coordinator (coord.Daemon) over both nodes answers
//     /v1/join and /v1/selfjoin from memory, bit-identical too.
//
// cmd/joinctl packages steps 2–4 as a CLI for real deployments.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"amstrack/internal/amsd"
	"amstrack/internal/coord"
	"amstrack/internal/dist"
	"amstrack/internal/engine"
	"amstrack/internal/exact"
)

// httpClient is the coordinator's one shared client: keep-alive
// connections are reused across every bundle pull, and the Timeout
// bounds each exchange — http.DefaultClient would wait forever on a
// wedged node. Every fetch in the repo goes through a client like this;
// internal/hygiene enforces the Timeout at test time.
var httpClient = &http.Client{
	Timeout:   30 * time.Second,
	Transport: &http.Transport{MaxIdleConnsPerHost: 4},
}

func main() {
	// Every node MUST share these: signatures only combine across equal
	// hash families (Seed) and shapes.
	opts := engine.Options{SignatureWords: 1024, SignatureRows: 8, Seed: 77, SketchS1: 512, SketchS2: 6}

	// The full relation pair, plus exact histograms for ground truth.
	zipf, err := dist.NewZipf(1.2, 5000, 9)
	check(err)
	flat, err := dist.NewZipf(1.05, 5000, 10)
	check(err)
	orders := dist.Take(zipf, 200000)
	lineitems := dist.Take(flat, 200000)
	exO, exL := exact.NewHistogram(), exact.NewHistogram()
	for _, v := range orders {
		exO.Insert(v)
	}
	for _, v := range lineitems {
		exL.Insert(v)
	}

	// Two nodes, each ingesting every other tuple of both relations.
	nodes := make([]*httptest.Server, 2)
	for i := range nodes {
		eng, err := engine.New(opts)
		check(err)
		for rel, vs := range map[string][]uint64{"orders": orders, "lineitems": lineitems} {
			r, err := eng.Define(rel)
			check(err)
			part := make([]uint64, 0, len(vs)/2+1)
			for j, v := range vs {
				if j%2 == i {
					part = append(part, v)
				}
			}
			r.InsertBatch(part)
		}
		nodes[i] = httptest.NewServer(amsd.NewServer(eng))
		defer nodes[i].Close()
	}

	urls := []string{nodes[0].URL, nodes[1].URL}
	fx := coord.NewFetcher(httpClient, 3, 100*time.Millisecond)

	// Reference: one engine over the unpartitioned streams.
	single, err := engine.New(opts)
	check(err)
	for rel, vs := range map[string][]uint64{"orders": orders, "lineitems": lineitems} {
		r, err := single.Define(rel)
		check(err)
		r.InsertBatch(vs)
	}

	// Coordinator: pull and merge each relation's partition bundles. The
	// wire bundles are bit-identical to a single engine's, not just the
	// estimates.
	for _, rel := range []string{"orders", "lineitems"} {
		merged, n, err := coord.MergeAcross(fx, urls, rel, true, nil)
		check(err)
		mb, err := merged.MarshalBinary()
		check(err)
		sb, err := single.ExportRelation(rel)
		check(err)
		fmt.Printf("merged %-9q from %d nodes: %d tuples, %d bytes (bit-identical to single-node export: %v)\n",
			rel, n, merged.Rows, len(mb), bytes.Equal(mb, sb))
	}

	res, err := coord.Coordinate(fx, urls, "orders", "lineitems", true, nil)
	check(err)
	ref, err := single.EstimateJoin("orders", "lineitems")
	check(err)
	truth := float64(exO.JoinSize(exL))
	fmt.Printf("\ncoordinated estimate : %.6g ± %.6g (1σ, Lemma 4.4)\n", res.Estimate, res.Sigma)
	fmt.Printf("single-node estimate : %.6g (bit-identical: %v)\n", ref.Estimate, res.JoinEstimate == ref)
	fmt.Printf("exact join size      : %.6g\n", truth)
	fmt.Printf("relative error       : %+.2f%%\n", 100*(res.Estimate-truth)/truth)

	// The cached coordinator: one sweep warms its bundle cache, then
	// queries answer from memory through amsd's own estimate handlers.
	d, err := coord.NewDaemon(coord.Config{Nodes: urls, Relations: []string{"orders", "lineitems"}, Fetcher: fx})
	check(err)
	check(d.Sweep())
	cached := httptest.NewServer(d.Handler())
	defer cached.Close()
	var join amsd.JoinBody
	getJSON(cached.URL+"/v1/join?f=orders&g=lineitems", &join)
	fmt.Printf("\ncached /v1/join      : %.6g ± %.6g, %d ms stale (bit-identical: %v)\n",
		join.Estimate, join.Sigma, join.StalenessMS, join.JoinEstimate == ref)
	var sj amsd.SelfJoinBody
	getJSON(cached.URL+"/v1/selfjoin?relation=orders", &sj)
	so, err := single.Get("orders")
	check(err)
	refSJ, estimator := so.SelfJoinEstimateDetail()
	fmt.Printf("cached /v1/selfjoin  : %.6g via %s (bit-identical: %v)\n",
		sj.Estimate, sj.Estimator, sj.Estimate == refSJ && sj.Estimator == estimator && sj.Len == so.Len())
}

// maxResponse caps every response read: a client must bound what it
// accepts from a server, even a trusted one — a misconfigured server (or
// the wrong process on the right port) must fail loudly, not exhaust
// memory. joinctl exposes the same cap as -max-bundle-mb.
const maxResponse = 64 << 20

// getJSON decodes one JSON answer from url.
func getJSON(url string, v any) {
	resp, err := httpClient.Get(url)
	check(err)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		panic(fmt.Sprintf("GET %s: HTTP %d", url, resp.StatusCode))
	}
	check(json.NewDecoder(io.LimitReader(resp.Body, maxResponse)).Decode(v))
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
