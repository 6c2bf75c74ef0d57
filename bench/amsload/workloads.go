package main

import (
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"amstrack/internal/coord"
	"amstrack/internal/engine"
	"amstrack/internal/router"
	"amstrack/internal/wire"
)

// workloadDef is one row of the workload table BENCHMARK.json declares.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*run) error
	// primary is the throughput trace.overhead compares.
	primary string
}

var workloads = []workloadDef{
	{
		Name:    "ingest-direct",
		Why:     "2 closed-loop wire clients into one durable node: hashing, absorber apply, group commit and checkpoints do the work; router and coord do none",
		run:     func(r *run) error { return runIngest(r, false) },
		primary: "ingest_rows_per_s",
	},
	{
		Name:    "ingest-routed",
		Why:     "the same stream through the router to 3 durable nodes: engine work is unchanged, so the gap to ingest-direct is partition, re-frame, second hop and ACK",
		run:     func(r *run) error { return runIngest(r, true) },
		primary: "ingest_rows_per_s",
	},
	{
		Name:    "query-serve",
		Why:     "closed-loop join and chain queries at the cached coordinator over 2 preloaded nodes beside a 20k rows/s trickle: query path and coord refresh do the work",
		run:     runQueryServe,
		primary: "query.per_s",
	},
	{
		Name:    "mixed-skew",
		Why:     "zipf(1.5) writes with 10% deletes into skimmed relations beside 200 queries/s in an open loop, each draining against live ingest",
		run:     runMixedSkew,
		primary: "ingest_rows_per_s",
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// shapeOptions is the synopsis shape every node shares, without
// durability: the reference engine's configuration.
func shapeOptions() engine.Options {
	o := nodeOptions("", nil)
	o.SegmentOps, o.CheckpointSegments, o.CheckpointInterval = 0, 0, 0
	return o
}

// joinAnswer decodes the join answers of amsd and of the coordinator.
type joinAnswer struct {
	Estimate    float64 `json:"estimate"`
	Sigma       float64 `json:"sigma"`
	SJF         float64 `json:"sjf"`
	SJG         float64 `json:"sjg"`
	Estimator   string  `json:"estimator"`
	RowsF       int64   `json:"rows_f"`
	RowsG       int64   `json:"rows_g"`
	StalenessMS int64   `json:"staleness_ms"`
}

// ---- ingest-direct and ingest-routed ----

var ingestRels = []string{"orders", "lineitems"}

// ingestRotations are the two clients' streams: orders uniform over
// 2^20 (keys drawn without replacement, like an order key), lineitems
// zipf(1.0) over 2^20. Both ingest workloads draw them from the same
// seeds, so at one --seed they ingest one stream.
func ingestRotations(r *run) [][][]uint64 {
	return [][][]uint64{
		rotation(shuffled(streamSeed(r.seed, "ingest", 0), domain), r.sc.rotation, batchRows),
		rotation(zipf(streamSeed(r.seed, "ingest", 1), 1.0, domain), r.sc.rotation, batchRows),
	}
}

type ingestSys struct {
	nodes   []*node
	front   *front // routed only
	clients []*wire.Client
}

func (s *ingestSys) closeClients() {
	for _, c := range s.clients {
		_ = c.Close()
	}
	s.clients = nil
}

func (s *ingestSys) close() {
	s.closeClients()
	if s.front != nil {
		s.front.close()
		s.front = nil
	}
	for _, n := range s.nodes {
		n.close()
	}
}

func buildIngest(r *run, dir string, routed bool, clients int) (*ingestSys, error) {
	s := &ingestSys{}
	nodes := 1
	if routed {
		nodes = 3
	}
	for i := 0; i < nodes; i++ {
		n, err := startNode(filepath.Join(dir, "node"+strconv.Itoa(i)), r.tr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.nodes = append(s.nodes, n)
	}
	addr := s.nodes[0].wireAddr
	if routed {
		f, err := startFront(s.nodes, r.tr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.front = f
		for _, rel := range ingestRels {
			if err := f.rt.Define(coord.Schema{Relation: rel}); err != nil {
				s.close()
				return nil, fmt.Errorf("define %s: %w", rel, err)
			}
		}
		addr = f.addr
	} else {
		for _, rel := range ingestRels {
			if _, err := s.nodes[0].eng.Define(rel); err != nil {
				s.close()
				return nil, fmt.Errorf("define %s: %w", rel, err)
			}
		}
	}
	for c := 0; c < clients; c++ {
		wc, err := wire.Dial(addr, wire.Options{Conns: 1})
		if err != nil {
			s.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		s.clients = append(s.clients, wc)
	}
	return s, nil
}

func runIngest(r *run, routed bool) error {
	rots := ingestRotations(r)
	sys, err := setup(r, func(dir string) (*ingestSys, error) {
		return buildIngest(r, dir, routed, len(rots))
	}, (*ingestSys).close)
	if err != nil {
		return err
	}
	defer sys.close()

	writers := make([]*writer, len(rots))
	for c, rot := range rots {
		rel := ingestRels[c]
		writers[c] = &writer{r: r, wc: sys.clients[c],
			next: func(i int) batch { return batch{rel: rel, vals: rot[i%len(rot)]} }}
		// Warm-up: dials the router's downstream sessions; acked, so
		// it is part of the ground truth, but not timed.
		if err := writers[c].group(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	r.beginMeasure()
	stopSampler := func() {}
	if routed && r.tr != nil {
		stopSampler = sampleQueues(r.tr, sys.front.rt)
	}
	var acks series
	start := time.Now().Add(r.sc.warm)
	rows, err := drive(writers, start, start.Add(r.seconds), &acks)
	stopSampler()
	if err != nil {
		return err
	}
	r.ackMetrics(&acks)
	wireErrs := sys.nodes[0].wireSrv.Stats().Errors
	if routed {
		wireErrs = sys.front.srv.Stats().Errors
		for _, n := range sys.nodes {
			wireErrs += n.wireSrv.Stats().Errors
		}
	}
	sys.closeClients()

	// The final answer, from a single node directly and from a fleet
	// through the cached coordinator, covers every acked row.
	url := sys.nodes[0].base
	if routed {
		sys.front.close()
		sys.front = nil
		ch, err := startCoord(sys.nodes, ingestRels, 0, r.tr)
		if err != nil {
			return err
		}
		defer ch.close()
		url = ch.base
	}
	hc := queryClient()
	defer hc.CloseIdleConnections()
	var ans joinAnswer
	if err := r.query(hc, http.MethodGet, url+"/v1/join?f=orders&g=lineitems", nil, &ans); err != nil {
		return fmt.Errorf("final answer: %w", err)
	}
	if err := r.endMeasure(rows, wireErrs); err != nil {
		return err
	}

	truth := make([]counts, len(rots))
	var acked int64
	for c, w := range writers {
		truth[c] = make(counts, domain)
		for i := 0; i < w.sent; i++ {
			truth[c].add(w.next(i).vals, 1)
		}
		acked += w.rows
	}
	r.joinAccuracy(ans, truth[0], truth[1])
	r.conserved(sys.nodes, ingestRels, acked)
	if routed {
		r.check("coord-rows", ans.RowsF == truth[0].rows() && ans.RowsG == truth[1].rows(),
			"coordinator merged %d+%d rows, %d+%d acked", ans.RowsF, ans.RowsG, truth[0].rows(), truth[1].rows())
		r.nodeSkew(sys.nodes, ingestRels)
	}
	ref, err := referenceJoin(rots, writers)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	r.check("linearity-reference",
		ref.Estimate == ans.Estimate && ref.Sigma == ans.Sigma && ref.SJF == ans.SJF && ref.SJG == ans.SJG,
		"fleet %v±%v, one in-memory engine over the acked stream %v±%v", ans.Estimate, ans.Sigma, ref.Estimate, ref.Sigma)
	if err := r.nodeMetrics(sys.nodes, ingestRels); err != nil {
		return err
	}
	r.restartAll(sys.nodes, ingestRels)
	if r.tr != nil {
		r.coreBaseline(rots...)
	}
	return nil
}

// referenceJoin rebuilds the acked streams in one in-memory engine (a
// rotation's bundle merged once per full cycle, then the partial cycle
// inserted) and answers the join a fleet must reproduce bit for bit:
// the synopses are linear, so placement cannot change them.
func referenceJoin(rots [][][]uint64, writers []*writer) (engine.JoinEstimate, error) {
	eng, err := engine.New(shapeOptions())
	if err != nil {
		return engine.JoinEstimate{}, err
	}
	defer eng.Close()
	for c, rot := range rots {
		name := ingestRels[c]
		full, err := eng.Define("rotation-" + name)
		if err != nil {
			return engine.JoinEstimate{}, err
		}
		for _, b := range rot {
			full.InsertBatch(b)
		}
		bundle, err := eng.ExportRelation(full.Name())
		if err != nil {
			return engine.JoinEstimate{}, err
		}
		rel, err := eng.Define(name)
		if err != nil {
			return engine.JoinEstimate{}, err
		}
		for k := 0; k < writers[c].sent/len(rot); k++ {
			if err := eng.MergeRelation(name, bundle); err != nil {
				return engine.JoinEstimate{}, err
			}
		}
		for i := 0; i < writers[c].sent%len(rot); i++ {
			rel.InsertBatch(rot[i])
		}
	}
	return eng.EstimateJoin(ingestRels[0], ingestRels[1])
}

func sampleQueues(t *tracer, rt *router.Router) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				for _, h := range rt.Health() {
					t.queue.add(float64(h.Queue))
				}
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// ---- query-serve ----

var serveRels = []string{"orders", "lineitems", "f", "g", "h"}

const (
	trickleBatch = 64
	trickleRate  = 20_000 // rows/s
	serveRefresh = 200 * time.Millisecond
)

type serveInputs struct {
	orders, lineitems, f, h [][]uint64
	g                       [][][]uint64 // (a, b) rows
	trickle                 []batch
}

func genServe(r *run) *serveInputs {
	s := func(i int) uint64 { return streamSeed(r.seed, "query-serve", i) }
	in := &serveInputs{
		orders:    rotation(shuffled(s(0), domain), r.sc.preload/batchRows, batchRows),
		lineitems: rotation(zipf(s(1), 1.0, domain), r.sc.preload/batchRows, batchRows),
		f:         rotation(zipf(s(2), 1.0, chainDomain), r.sc.chainRows/batchRows, batchRows),
		h:         rotation(zipf(s(3), 1.0, chainDomain), r.sc.chainRows/batchRows, batchRows),
	}
	ga := rotation(zipf(s(4), 1.0, chainDomain), r.sc.chainRows/batchRows, batchRows)
	gb := rotation(zipf(s(5), 1.0, chainDomain), r.sc.chainRows/batchRows, batchRows)
	for i := range ga {
		rows := make([][]uint64, batchRows)
		for j := range rows {
			rows[j] = []uint64{ga[i][j], gb[i][j]}
		}
		in.g = append(in.g, rows)
	}
	for _, vals := range rotation(zipf(s(6), 1.0, domain), r.sc.trickleRows/trickleBatch, trickleBatch) {
		in.trickle = append(in.trickle, batch{rel: "lineitems", vals: vals})
	}
	return in
}

// preloadRows is every row a query-serve set-up loads.
func (in *serveInputs) preloadRows() int64 {
	n := 0
	for _, rot := range [][][]uint64{in.orders, in.lineitems, in.f, in.h} {
		n += len(rot) * batchRows
	}
	return int64(n + len(in.g)*batchRows)
}

type serveSys struct {
	nodes   []*node
	coord   *coordHost
	trickle *wire.Client
}

func (s *serveSys) close() {
	if s.trickle != nil {
		_ = s.trickle.Close()
		s.trickle = nil
	}
	if s.coord != nil {
		s.coord.close()
		s.coord = nil
	}
	for _, n := range s.nodes {
		n.close()
	}
}

func defineServe(eng *engine.Engine) error {
	for _, rel := range []string{"orders", "lineitems"} {
		if _, err := eng.Define(rel); err != nil {
			return err
		}
	}
	schemas := map[string]engine.Schema{
		"f": {Attrs: []string{"a"}, EndA: []string{"a"}},
		"g": {Attrs: []string{"a", "b"}, Middle: [][2]string{{"a", "b"}}},
		"h": {Attrs: []string{"b"}, EndB: []string{"b"}},
	}
	for _, rel := range []string{"f", "g", "h"} {
		if _, err := eng.DefineSchema(rel, schemas[rel]); err != nil {
			return err
		}
	}
	return nil
}

// preload streams batch k of every relation to node k mod 2.
func preload(n *node, part int, in *serveInputs) error {
	wc, err := wire.Dial(n.wireAddr, wire.Options{Conns: 1})
	if err != nil {
		return err
	}
	defer wc.Close()
	for rel, rot := range map[string][][]uint64{"orders": in.orders, "lineitems": in.lineitems, "f": in.f, "h": in.h} {
		for k := part; k < len(rot); k += 2 {
			if err := wc.InsertBatch(rel, rot[k]); err != nil {
				return err
			}
		}
	}
	for k := part; k < len(in.g); k += 2 {
		if err := wc.InsertRows("g", in.g[k]); err != nil {
			return err
		}
	}
	return wc.Flush()
}

func buildServe(r *run, dir string, in *serveInputs) (*serveSys, error) {
	s := &serveSys{}
	for i := 0; i < 2; i++ {
		n, err := startNode(filepath.Join(dir, "node"+strconv.Itoa(i)), r.tr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.nodes = append(s.nodes, n)
		if err := defineServe(n.eng); err != nil {
			s.close()
			return nil, fmt.Errorf("define: %w", err)
		}
	}
	// One preload connection per node, both at once.
	errs := make([]error, len(s.nodes))
	var wg sync.WaitGroup
	for i, n := range s.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = preload(n, i, in)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	c, err := startCoord(s.nodes, serveRels, serveRefresh, r.tr)
	if err != nil {
		s.close()
		return nil, err
	}
	s.coord = c
	s.trickle, err = wire.Dial(s.nodes[0].wireAddr, wire.Options{Conns: 1})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	return s, nil
}

var chainQuery = coord.ChainJoinRequest{F: "f", AttrA: "a", G: "g", AttrB: "b", H: "h"}

func runQueryServe(r *run) error {
	in := genServe(r)
	sys, err := setup(r, func(dir string) (*serveSys, error) { return buildServe(r, dir, in) }, (*serveSys).close)
	if err != nil {
		return err
	}
	defer sys.close()

	tw := &writer{r: r, wc: sys.trickle, size: 1,
		next: func(i int) batch { return in.trickle[i%len(in.trickle)] }}
	hc := queryClient()
	defer hc.CloseIdleConnections()
	joinURL := sys.coord.base + "/v1/join?f=orders&g=lineitems"
	chainURL := sys.coord.base + "/v1/join/chain"
	var stale recorder
	ask := func(i int) error {
		var ans joinAnswer
		var err error
		if i%4 == 3 {
			err = r.query(hc, http.MethodPost, chainURL, chainQuery, &ans)
		} else {
			err = r.query(hc, http.MethodGet, joinURL, nil, &ans)
		}
		if err == nil {
			stale.add(float64(ans.StalenessMS))
		}
		return err
	}
	if err := ask(0); err != nil { // warm the connection
		return err
	}

	r.beginMeasure()
	var acks, lat series
	now := time.Now()
	start := now.Add(r.sc.warm)
	deadline := start.Add(r.seconds)
	tw.acks, tw.start = &acks, start
	done := make(chan struct{})
	var trickleErr error
	go func() {
		defer close(done)
		paced(now, deadline, time.Second*trickleBatch/trickleRate, &r.late, func(int, time.Time) {
			if trickleErr == nil {
				trickleErr = tw.group()
			}
		})
	}()
	closedLoop(start, deadline, done, &lat, ask)
	<-done
	if trickleErr != nil {
		return fmt.Errorf("trickle: %w", trickleErr)
	}
	r.ackMetrics(&acks)
	r.queryMetrics(&lat, r.seconds)
	r.metric("coord.staleness_p50_ms", stale.pct(50))
	wireErrs := sys.nodes[0].wireSrv.Stats().Errors + sys.nodes[1].wireSrv.Stats().Errors
	if err := r.endMeasure(tw.rows, wireErrs); err != nil {
		return err
	}

	// Final answers from a cache that has seen every acked row.
	if err := sys.coord.d.Sweep(); err != nil {
		return fmt.Errorf("final sweep: %w", err)
	}
	var ans, chain joinAnswer
	if err := r.query(hc, http.MethodGet, joinURL, nil, &ans); err != nil {
		return err
	}
	if err := r.query(hc, http.MethodPost, chainURL, chainQuery, &chain); err != nil {
		return err
	}

	orders, lineitems := make(counts, domain), make(counts, domain)
	for _, b := range in.orders {
		orders.add(b, 1)
	}
	for _, b := range in.lineitems {
		lineitems.add(b, 1)
	}
	for i := 0; i < tw.sent; i++ {
		lineitems.add(tw.next(i).vals, 1)
	}
	f, h, g := make(counts, chainDomain), make(counts, chainDomain), pairCounts{}
	for i := range in.f {
		f.add(in.f[i], 1)
		h.add(in.h[i], 1)
	}
	for _, rows := range in.g {
		for _, ab := range rows {
			g[[2]uint64{ab[0], ab[1]}]++
		}
	}
	r.joinAccuracy(ans, orders, lineitems)
	r.within4σ("chain-within-4sigma", chain.Estimate, chainJoin(f, g, h), chain.Sigma)
	r.check("coord-rows", ans.RowsF == orders.rows() && ans.RowsG == lineitems.rows(),
		"coordinator merged %d+%d rows, %d+%d acked", ans.RowsF, ans.RowsG, orders.rows(), lineitems.rows())
	r.conserved(sys.nodes, serveRels, in.preloadRows()+tw.rows)

	sys.coord.close()
	sys.coord = nil
	if err := r.nodeMetrics(sys.nodes, serveRels); err != nil {
		return err
	}
	r.restartAll(sys.nodes, serveRels)
	if r.tr != nil {
		vals := make([][]uint64, len(in.trickle))
		for i, b := range in.trickle {
			vals[i] = b.vals
		}
		r.coreBaseline(vals)
	}
	return nil
}

// ---- mixed-skew ----

var mixedRels = []string{"f", "g"}

const (
	skimHitters = 96
	queryPeriod = 5 * time.Millisecond // 200 queries/s
	unitBatches = 10                   // 9 inserts, then a delete of the first
	unitInserts = unitBatches - 1
	mixedAlpha  = 1.5
)

// mixedStream interleaves units of 10 batches, alternating f and g: 9
// insert batches from the relation's rotation, then a delete of the
// unit's first batch, so every delete removes rows inserted before it
// on the same ordered connection.
func mixedStream(rots [][][]uint64) func(i int) batch {
	return func(i int) batch {
		u, pos := i/unitBatches, i%unitBatches
		rel, v := u%2, u/2
		rot := rots[rel]
		if pos == unitInserts {
			return batch{rel: mixedRels[rel], del: true, vals: rot[(v*unitInserts)%len(rot)]}
		}
		return batch{rel: mixedRels[rel], vals: rot[(v*unitInserts+pos)%len(rot)]}
	}
}

func runMixedSkew(r *run) error {
	rots := [][][]uint64{
		rotation(zipf(streamSeed(r.seed, "mixed-skew", 0), mixedAlpha, domain), r.sc.rotation, batchRows),
		rotation(zipf(streamSeed(r.seed, "mixed-skew", 1), mixedAlpha, domain), r.sc.rotation, batchRows),
	}
	type mixedSys struct {
		n  *node
		wc *wire.Client
	}
	teardown := func(s *mixedSys) {
		if s.wc != nil {
			_ = s.wc.Close()
			s.wc = nil
		}
		s.n.close()
	}
	sys, err := setup(r, func(dir string) (*mixedSys, error) {
		n, err := startNode(filepath.Join(dir, "node0"), r.tr)
		if err != nil {
			return nil, err
		}
		for _, rel := range mixedRels {
			if _, err := n.eng.DefineSchema(rel, engine.Schema{SkimHitters: skimHitters}); err != nil {
				n.close()
				return nil, fmt.Errorf("define %s: %w", rel, err)
			}
		}
		wc, err := wire.Dial(n.wireAddr, wire.Options{Conns: 1})
		if err != nil {
			n.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		return &mixedSys{n: n, wc: wc}, nil
	}, teardown)
	if err != nil {
		return err
	}
	defer teardown(sys)

	w := &writer{r: r, wc: sys.wc, next: mixedStream(rots)}
	if err := w.group(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	hc := queryClient()
	defer hc.CloseIdleConnections()
	selfURL := sys.n.base + "/v1/selfjoin?relation=f"
	joinURL := sys.n.base + "/v1/join?f=f&g=g"
	ask := func(i int) error {
		var sink joinAnswer
		if i%2 == 0 {
			return r.query(hc, http.MethodGet, selfURL, nil, &sink)
		}
		return r.query(hc, http.MethodGet, joinURL, nil, &sink)
	}
	if err := ask(1); err != nil { // warm the connection
		return err
	}

	r.beginMeasure()
	var (
		acks, lat series
		qwg       sync.WaitGroup
		rows      int64
		werr      error
		wdone     = make(chan struct{})
	)
	now := time.Now()
	start := now.Add(r.sc.warm)
	deadline := start.Add(r.seconds)
	go func() {
		defer close(wdone)
		rows, werr = drive([]*writer{w}, start, deadline, &acks)
	}()
	// Open loop: each query is timed from when it was due.
	paced(now, deadline, queryPeriod, &r.late, func(i int, due time.Time) {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			if err := ask(i); err != nil {
				logf("query: %v", err)
				return
			}
			t1 := time.Now()
			lat.add(t1.Sub(start), float64(t1.Sub(due))/float64(time.Microsecond), 1)
		}()
	})
	qwg.Wait()
	<-wdone
	if werr != nil {
		return werr
	}
	r.ackMetrics(&acks)
	r.queryMetrics(&lat, r.seconds)
	if err := r.endMeasure(rows, sys.n.wireSrv.Stats().Errors); err != nil {
		return err
	}

	var ans, self joinAnswer
	if err := r.query(hc, http.MethodGet, joinURL, nil, &ans); err != nil {
		return err
	}
	if err := r.query(hc, http.MethodGet, selfURL, nil, &self); err != nil {
		return err
	}

	truth := []counts{make(counts, domain), make(counts, domain)}
	var net int64
	for i := 0; i < w.sent; i++ {
		b := w.next(i)
		sign := int64(1)
		if b.del {
			sign = -1
		}
		truth[(i/unitBatches)%2].add(b.vals, sign)
		net += sign * int64(len(b.vals))
	}
	r.joinAccuracy(ans, truth[0], truth[1])
	sjf := truth[0].selfJoin()
	r.within4σ("selfjoin-endpoint-within-4sigma", self.Estimate, sjf, selfJoinSigma(sjf, 1024))
	r.metric("accuracy.selfjoin_relerr", math.Abs(self.Estimate-sjf)/sjf)
	r.check("skimmed-estimator", ans.Estimator == "skimmed" && self.Estimator == "skimmed",
		"join answered by %q, self-join by %q", ans.Estimator, self.Estimator)
	r.conserved([]*node{sys.n}, mixedRels, net)
	if err := r.nodeMetrics([]*node{sys.n}, mixedRels); err != nil {
		return err
	}
	r.restartAll([]*node{sys.n}, mixedRels)
	if r.tr != nil {
		r.coreBaseline(rots...)
	}
	return nil
}
