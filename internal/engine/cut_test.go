package engine

import (
	"fmt"
	"sync"
	"testing"

	"amstrack/internal/xrand"
)

// skewedValues draws n values with a few hot keys over a long tail, so a
// skimming relation's heavy-hitter table carries real mass.
func skewedValues(n int, seed uint64) []uint64 {
	rng := xrand.New(seed)
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = rng.Uint64n(2000)
		if rng.Uint64n(3) != 0 {
			vs[i] = rng.Uint64n(8)
		}
	}
	return vs
}

// TestJoinAnswerPathsAgree: both ways of asking one join — two local
// relations, and the bundle function over two exports — answer with the
// same JoinEstimate in every field, for a plain pair and a skimmed pair,
// and each side's SJ is that relation's own self-join answer.
func TestJoinAnswerPathsAgree(t *testing.T) {
	e, err := New(Options{SignatureWords: 256, Seed: 21, SketchS1: 128, SketchS2: 4, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i, name := range []string{"a", "b", "s", "t"} {
		schema := Schema{}
		if name == "s" || name == "t" {
			schema.SkimHitters = 16
		}
		r, err := e.DefineSchema(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		r.InsertBatch(skewedValues(5000, 300+uint64(i)))
	}
	for _, pr := range []struct{ f, g, estimator string }{{"a", "b", "sketch"}, {"s", "t", "skimmed"}} {
		direct, err := e.EstimateJoin(pr.f, pr.g)
		if err != nil {
			t.Fatal(err)
		}
		if direct.Estimator != pr.estimator {
			t.Fatalf("%s⋈%s answered by %q, want %q", pr.f, pr.g, direct.Estimator, pr.estimator)
		}
		bf, err := e.ExportRelation(pr.f)
		if err != nil {
			t.Fatal(err)
		}
		bg, err := e.ExportRelation(pr.g)
		if err != nil {
			t.Fatal(err)
		}
		var df, dg RelationBundle
		if err := df.UnmarshalBinary(bf); err != nil {
			t.Fatal(err)
		}
		if err := dg.UnmarshalBinary(bg); err != nil {
			t.Fatal(err)
		}
		bundles, err := EstimateJoinBundles(&df, &dg)
		if err != nil {
			t.Fatal(err)
		}
		if bundles != direct {
			t.Errorf("%s⋈%s: EstimateJoinBundles answered %+v, EstimateJoin %+v", pr.f, pr.g, bundles, direct)
		}
		rf, _ := e.Get(pr.f)
		rg, _ := e.Get(pr.g)
		sjF, _ := rf.SelfJoinEstimateDetail()
		sjG, _ := rg.SelfJoinEstimateDetail()
		if direct.SJF != sjF || direct.SJG != sjG {
			t.Errorf("%s⋈%s: SJ %v/%v, the relations' own self-join answers %v/%v", pr.f, pr.g, direct.SJF, direct.SJG, sjF, sjG)
		}
	}
}

// TestReadIsOneCutUnderIngest: while two writers insert distinct values,
// every export and every MarshalBinary blob is one cut — its signature,
// sketch, row count and op counter all describe the same op prefix.
func TestReadIsOneCutUnderIngest(t *testing.T) {
	e, err := New(Options{SignatureWords: 128, Seed: 23, SketchS1: 64, SketchS2: 4, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, name := range []string{"f", "s"} {
		schema := Schema{}
		if name == "s" {
			schema.SkimHitters = 8
		}
		if _, err := e.DefineSchema(name, schema); err != nil {
			t.Fatal(err)
		}
	}
	// Two writers, each alternating between the plain and the skimming
	// relation; values are distinct across writers and batches.
	f, _ := e.Get("f")
	s, _ := e.Get("s")
	stop := make(chan struct{})
	started := make(chan struct{}, 2)
	var writers sync.WaitGroup
	for w := uint64(0); w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			batch := make([]uint64, 16)
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for j := range batch {
					batch[j] = w<<40 | i<<5 | uint64(j)
				}
				r := []*Relation{f, s}[i%2]
				if i%4 < 2 {
					r.InsertBatch(batch)
				} else {
					r.Insert(batch[0])
				}
				if i == 1 {
					started <- struct{}{}
				}
			}
		}()
	}
	for i := 0; i < 2; i++ {
		<-started
	}
	defer func() {
		close(stop)
		writers.Wait()
	}()
	for i := 0; i < 200; i++ {
		name := []string{"f", "s"}[i%2]
		data, err := e.ExportRelation(name)
		if err != nil {
			t.Fatal(err)
		}
		var b RelationBundle
		if err := b.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if b.Rows != int64(b.Seq) || b.Sketch.Len() != b.Sig.Len() {
			t.Fatalf("export %d of %s mixes cuts: Rows %d, Seq %d, sketch %d rows, signature %d rows",
				i, name, b.Rows, b.Seq, b.Sketch.Len(), b.Sig.Len())
		}
	}
	for i := 0; i < 200; i++ {
		img, err := e.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back Engine
		if err := back.UnmarshalBinary(img); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"f", "s"} {
			r, err := back.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if seq, n := r.Cut().Seq, r.Len(); seq != uint64(n) {
				t.Fatalf("blob %d: %s restored with Seq %d but %d rows", i, name, seq, n)
			}
		}
		if err := back.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentReadersDoNotDeadlock: readers of every kind — joins,
// self-joins, exports, stat probes, chain joins, checkpoints — run at
// once against a durable engine while writers stream into every
// relation. Each read parks all of a relation's absorbers; two readers
// whose parking barriers reached the shard channels in different orders
// would each hold an absorber the other waits for. The test waits on the
// readers only, so a deadlock hangs it until the -timeout fires.
func TestConcurrentReadersDoNotDeadlock(t *testing.T) {
	opts := chainOpts()
	opts.Shards = 4
	opts.Dir = t.TempDir()
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rf, rg, rh := defineChain(t, e)

	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w uint64) {
			defer writers.Done()
			rng := xrand.New(40 + w)
			for {
				select {
				case <-stop:
					return
				default:
				}
				a, b := rng.Uint64n(64), rng.Uint64n(64)
				rf.Insert(a)
				rg.InsertTupleBatch([][]uint64{{a, b}, {b, a}})
				rh.InsertBatch([]uint64{b, a})
			}
		}(uint64(w))
	}
	defer func() {
		close(stop)
		writers.Wait()
	}()

	reads := []func() error{
		func() error { _, err := e.EstimateJoin("f", "h"); return err },
		func() error { rg.SelfJoinEstimateDetail(); return nil },
		func() error { _, err := e.ExportRelation("g"); return err },
		func() error { _, err := e.StatRelation("f"); return err },
		func() error { _, err := e.EstimateChainJoin("f", "a", "g", "b", "h"); return err },
		func() error { _, err := e.Checkpoint(); return err },
	}
	var readers sync.WaitGroup
	errs := make(chan error, 6)
	for r := 0; r < 6; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; i < 40; i++ {
				if err := reads[(r+i)%len(reads)](); err != nil {
					errs <- fmt.Errorf("reader %d, read %d: %w", r, i, err)
					return
				}
			}
		}(r)
	}
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
