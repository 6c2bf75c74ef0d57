package engine

import (
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amstrack/internal/xrand"
)

// absOpts is durOpts with deliberately tiny staged runs so they fill and
// partial runs drain constantly during the tests.
func absOpts(dir string) Options {
	o := durOpts(dir)
	o.stageOps = 7
	return o
}

// TestAbsorberKillAndRecover is TestKillAndRecover under tiny staged
// runs, asserted byte for byte against the reference model.
func TestAbsorberKillAndRecover(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(absOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	ingestPhase1(e, t)
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ingestPhase2(e, t)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	back, err := Open(absOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	expectEngineMatchesModel(t, back, phaseModel(t, true))
}

// TestAbsorberTornTailRecover crashes the absorber pipeline's log with a
// partial record and expects a clean truncation to the reference model's
// state.
func TestAbsorberTornTailRecover(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(absOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	ingestPhase1(e, t)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, relFileName("f", 0))
	lf, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lf.Write([]byte{0, 0xAB, 0xCD}); err != nil {
		t.Fatal(err)
	}
	lf.Close()

	back, err := Open(absOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	expectEngineMatchesModel(t, back, phaseModel(t, false))
}

// TestAbsorberReadYourWrites: ops still sitting in staging buffers must
// be visible to every query form without an explicit Drain.
func TestAbsorberReadYourWrites(t *testing.T) {
	o := Options{SignatureWords: 128, Seed: 5, SketchS1: 64, SketchS2: 4,
		Shards: 2} // default stageOps: 3 ops stay staged
	e, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := e.Define("f")
	g, _ := e.Define("g")
	f.Insert(1)
	f.Insert(1)
	g.Insert(1)
	if n := f.Len(); n != 2 {
		t.Fatalf("Len = %d before any drain, want 2", n)
	}
	if got := g.SelfJoinEstimate(); got != 1 {
		t.Fatalf("SJ estimate = %v, want exactly 1 for a single staged tuple", got)
	}
	je, err := e.EstimateJoin("f", "g")
	if err != nil {
		t.Fatal(err)
	}
	if je.Estimate != 2 {
		t.Fatalf("join estimate = %v, want exactly 2 (two copies of one value)", je.Estimate)
	}
	if err := f.Delete(1); err != nil {
		t.Fatal(err)
	}
	if n := f.Len(); n != 1 {
		t.Fatalf("Len = %d after staged delete, want 1", n)
	}
}

// breakLog yanks the file out from under the relation's log writer, the
// fault-injection for absorber-side append failures: the next write the
// log writer's buffer makes — when it fills, or at a barrier — fails and
// must go sticky.
func breakLog(t *testing.T, r *Relation) {
	t.Helper()
	r.log.mu.Lock()
	defer r.log.mu.Unlock()
	if r.log.cur == nil {
		t.Fatal("relation has no log file")
	}
	if err := r.log.cur.f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAbsorberErrVisibility is the failing-writer table test: a log
// writer that starts failing mid-stream must surface on every advertised
// channel — Err, the next erroring caller-side op (Delete/DeleteBatch),
// Drain, Sync, and Checkpoint.
func TestAbsorberErrVisibility(t *testing.T) {
	cases := []struct {
		name    string
		surface func(t *testing.T, e *Engine, r *Relation) error
	}{
		{"drain", func(t *testing.T, e *Engine, r *Relation) error {
			return r.Drain()
		}},
		{"delete", func(t *testing.T, e *Engine, r *Relation) error {
			r.Drain() // force the failed flush; the assertion is Delete's return
			return r.Delete(1)
		}},
		{"delete-batch", func(t *testing.T, e *Engine, r *Relation) error {
			r.Drain()
			return r.DeleteBatch([]uint64{1})
		}},
		{"err-after-buffer-write", func(t *testing.T, e *Engine, r *Relation) error {
			// No barrier: a batch larger than the log writer's 4 KiB
			// buffer (1,024 rows, an 8,206-byte record) is written out
			// as it is appended, and that write alone must trip the
			// failure and leave it sticky.
			r.InsertBatch(make([]uint64, 1024))
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				if err := r.Err(); err != nil {
					return err
				}
				time.Sleep(time.Millisecond)
			}
			return r.Err()
		}},
		{"drain-len", func(t *testing.T, e *Engine, r *Relation) error {
			_, err := r.DrainLen()
			return err
		}},
		{"sync", func(t *testing.T, e *Engine, r *Relation) error {
			return e.Sync()
		}},
		{"checkpoint", func(t *testing.T, e *Engine, r *Relation) error {
			_, err := e.Checkpoint()
			return err
		}},
		{"engine-drain", func(t *testing.T, e *Engine, r *Relation) error {
			return e.Drain()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := Open(absOpts(t.TempDir()))
			if err != nil {
				t.Fatal(err)
			}
			r, err := e.Define("f")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				r.Insert(uint64(i % 9))
			}
			if err := r.Drain(); err != nil {
				t.Fatal(err)
			}
			breakLog(t, r)
			// Mid-stream: the writer is already broken while these ops flow.
			for i := 0; i < 100; i++ {
				r.Insert(uint64(i % 9))
			}
			if err := tc.surface(t, e, r); err == nil {
				t.Fatal("failing log writer never surfaced")
			}
			// Sticky: once seen, every later channel reports it too.
			if r.Err() == nil {
				t.Fatal("error not sticky on Err")
			}
			if err := r.Drain(); err == nil {
				t.Fatal("error not sticky on Drain")
			}
		})
	}
}

// TestAbsorberIngestAfterDropIsNoOp: the amsd-reachable race — ingest on
// a relation handle that was concurrently dropped (or whose engine
// closed) — must be a silent discard, never a panic.
func TestAbsorberIngestAfterDropIsNoOp(t *testing.T) {
	o := Options{SignatureWords: 64, Seed: 3, NoSketch: true, Shards: 2}
	e, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Define("f")
	if err != nil {
		t.Fatal(err)
	}
	r.Insert(1)
	if err := e.Drop("f"); err != nil {
		t.Fatal(err)
	}
	r.Insert(2) // discarded
	r.InsertBatch([]uint64{3, 4})
	if err := r.Delete(9); err != nil {
		t.Fatal(err)
	}
	if n := r.Len(); n != 1 {
		t.Fatalf("dropped relation Len = %d, want 1 (post-drop ops discarded)", n)
	}
}

// TestStopRacesIngest races writers of every kind — Insert, Delete,
// batches and tuple batches, on an arity-1 and an arity-2 relation — and
// readers against Drop, and separately Close, on in-memory and durable
// engines. Every call must return, nothing may panic, and once the stop
// has returned a relation's Len must never move again: whatever raced it
// was applied before it or discarded.
func TestStopRacesIngest(t *testing.T) {
	for _, durable := range []bool{false, true} {
		for _, how := range []string{"drop", "close"} {
			name := "mem/" + how
			if durable {
				name = "wal/" + how
			}
			t.Run(name, func(t *testing.T) {
				o := Options{SignatureWords: 64, Seed: 3, SketchS1: 16, SketchS2: 2, Shards: 4,
					stageOps: 5}
				var e *Engine
				var err error
				if durable {
					o.Dir = t.TempDir()
					e, err = Open(o)
				} else {
					e, err = New(o)
				}
				if err != nil {
					t.Fatal(err)
				}
				f, err := e.Define("f")
				if err != nil {
					t.Fatal(err)
				}
				g, err := e.DefineSchema("g", Schema{Attrs: []string{"a", "b"}})
				if err != nil {
					t.Fatal(err)
				}
				// lenF and lenG are the Lens read once the stop returned;
				// stopped is closed after they are set.
				var lenF, lenG int64
				stopped := make(chan struct{})
				var progress atomic.Int64
				var wg sync.WaitGroup
				// Each worker runs until the stop has returned, then 50
				// calls more.
				worker := func(seed uint64, op func(r *xrand.Rand)) {
					wg.Add(1)
					go func() {
						defer wg.Done()
						r := xrand.New(seed)
						after := -1
						for after != 0 {
							op(r)
							progress.Add(1)
							select {
							case <-stopped:
								if after < 0 {
									after = 50
								}
								after--
							default:
							}
						}
					}()
				}
				worker(1, func(r *xrand.Rand) { f.Insert(r.Uint64n(64)) })
				worker(2, func(r *xrand.Rand) { _ = f.Delete(r.Uint64n(64)) })
				worker(3, func(r *xrand.Rand) {
					vs := []uint64{r.Uint64n(64), r.Uint64n(64), r.Uint64n(64)}
					if r.Uint64n(2) == 0 {
						f.InsertBatch(vs)
					} else {
						_ = f.DeleteBatch(vs)
					}
				})
				worker(4, func(r *xrand.Rand) {
					g.InsertTuple(r.Uint64n(64), r.Uint64n(64))
					_ = g.DeleteTuple(r.Uint64n(64), r.Uint64n(64))
				})
				worker(5, func(r *xrand.Rand) {
					rows := [][]uint64{{r.Uint64n(64), r.Uint64n(64)}, {r.Uint64n(64), r.Uint64n(64)}}
					if r.Uint64n(2) == 0 {
						g.InsertTupleBatch(rows)
					} else {
						_ = g.DeleteTupleBatch(rows)
					}
				})
				worker(6, func(r *xrand.Rand) {
					_ = f.IngestRun(r.Uint64n(2) == 0, []uint64{r.Uint64n(64)})
					_ = g.IngestRun(r.Uint64n(2) == 0, []uint64{r.Uint64n(64), r.Uint64n(64)})
				})
				worker(7, func(*xrand.Rand) {
					_ = f.Len()
					_, _ = g.DrainLen()
					_ = f.Drain()
					_ = g.SelfJoinEstimate()
					_ = f.Cut()
					_, _ = e.EstimateJoin("f", "g")
					_, _ = e.StatRelation("g")
				})
				worker(8, func(*xrand.Rand) {
					select {
					case <-stopped:
						if n, m := f.Len(), g.Len(); n != lenF || m != lenG {
							t.Errorf("Lens moved from %d, %d to %d, %d after the stop", lenF, lenG, n, m)
						}
					default:
					}
				})
				for progress.Load() < 2000 {
					runtime.Gosched()
				}
				// t.Error, not t.Fatal, until stopped is closed: the
				// workers run until then.
				if how == "drop" {
					if err := e.Drop("f"); err != nil {
						t.Error(err)
					}
					lenF = f.Len()
					if err := e.Drop("g"); err != nil {
						t.Error(err)
					}
					lenG = g.Len()
				} else {
					if err := e.Close(); err != nil {
						t.Error(err)
					}
					lenF, lenG = f.Len(), g.Len()
				}
				close(stopped)
				done := make(chan struct{})
				go func() {
					wg.Wait()
					close(done)
				}()
				select {
				case <-done:
				case <-time.After(30 * time.Second):
					t.Fatal("ingest or reads racing the stop did not return")
				}
				if n := f.Len(); n != lenF {
					t.Fatalf("f: Len moved from %d to %d after the stop", lenF, n)
				}
				if n := g.Len(); n != lenG {
					t.Fatalf("g: Len moved from %d to %d after the stop", lenG, n)
				}
				if how == "drop" {
					_ = e.Close()
				}
			})
		}
	}
}

// TestAbsorberDiscardStopsGoroutines: error paths that throw a freshly
// built relation away (corrupt checkpoint decode, duplicate import) must
// stop its absorber pipeline rather than leak it.
func TestAbsorberDiscardStopsGoroutines(t *testing.T) {
	o := Options{SignatureWords: 64, Seed: 3, SketchS1: 8, SketchS2: 2, Shards: 2}
	e, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := e.Define("x")
	r.Insert(1)
	blob, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		// Truncation guarantees a decode error after relations (and their
		// pipelines) may already have been built.
		var back Engine
		if err := back.UnmarshalBinary(blob[:len(blob)-1]); err == nil {
			t.Fatal("truncated blob accepted")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after 50 failed decodes", before, runtime.NumGoroutine())
}

// TestAbsorberOpenFailureStopsGoroutines: a caller retrying a failing
// Open (corrupt log) must not accumulate leaked absorber pipelines from
// the half-recovered engines each attempt throws away.
func TestAbsorberOpenFailureStopsGoroutines(t *testing.T) {
	dir := t.TempDir()
	o := absOpts(dir)
	e, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := e.Define("f")
	for i := 0; i < 200; i++ {
		f.Insert(uint64(i % 7))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, relFileName("f", 0))
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 30; i++ {
		if _, err := Open(o); err == nil {
			t.Fatal("corrupt log accepted")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after 30 failed Opens", before, runtime.NumGoroutine())
}

// TestBatchFollowsStagedOps: a batch goes on after the single ops staged
// before it. On a skimming relation, Insert(v) then DeleteBatch of v must
// leave v out of the heavy-hitter table (a delete that overtook the
// staged insert would meet an untracked v and be ignored, and the insert
// would then track it), and the log must hold the insert, then the
// delete.
func TestBatchFollowsStagedOps(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	r, err := e.DefineSchema("f", Schema{SkimHitters: 8})
	if err != nil {
		t.Fatal(err)
	}
	const v = 42
	r.Insert(v)
	if err := r.DeleteBatch([]uint64{v}); err != nil {
		t.Fatal(err)
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	if n, ok := r.Cut().HH.Count(v); ok {
		t.Fatalf("heavy-hitter table tracks %d with count %d after its insert and its delete", v, n)
	}
	last := relSegments(t, dir, "f")
	got := logRecords(t, last[len(last)-1].path, last[len(last)-1].data)
	if len(got) != 2 || got[0].Del || !got[1].Del || got[0].Vals[0] != v || got[1].Vals[0] != v {
		t.Fatalf("log holds %+v, want the insert of %d, then its delete", got, v)
	}
}

// TestSegmentRollAndRecover runs ingest over a tiny segment cap: the log
// must split into many bounded files, recovery must replay them in
// order, and the recovered relations must match the reference model byte
// for byte.
func TestSegmentRollAndRecover(t *testing.T) {
	t.Run("absorber", func(t *testing.T) {
		dir := t.TempDir()
		o := durOpts(dir)
		o.SegmentOps = 64
		e, err := Open(o)
		if err != nil {
			t.Fatal(err)
		}
		ingestPhase1(e, t)
		if err := e.Sync(); err != nil {
			t.Fatal(err)
		}
		// f's 3002 single ops reach the log as 13 records: 11 full 256-row
		// staged runs, the 185-row rest and the one delete. A segment rolls
		// between records once it holds 64 rows, so each record opens a
		// segment, and no segment holds 64 rows before its last record.
		segs := relSegments(t, dir, "f")
		for _, sg := range segs {
			var before, last int
			for _, rn := range logRecords(t, sg.path, sg.data) {
				before, last = before+last, rn.Rows()
			}
			if before >= 64 || last > defaultStageOps {
				t.Fatalf("segment %s holds %d rows before its last record and %d in it: want < 64 and at most %d",
					filepath.Base(sg.path), before, last, defaultStageOps)
			}
		}
		if len(segs) < 13 {
			t.Fatalf("only %d segments for ~3000 ops at SegmentOps=64", len(segs))
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		back, err := Open(o)
		if err != nil {
			t.Fatal(err)
		}
		defer back.Close()
		expectEngineMatchesModel(t, back, phaseModel(t, false))
	})
}

// TestSegmentTornAndCorrupt pins the per-segment recovery contract: a
// torn tail is legal ONLY in the last (actively appended) segment; a
// torn or corrupted sealed segment, or a missing one, fails recovery.
func TestSegmentTornAndCorrupt(t *testing.T) {
	build := func(t *testing.T) (string, Options) {
		dir := t.TempDir()
		o := durOpts(dir)
		o.SegmentOps = 16
		e, err := Open(o)
		if err != nil {
			t.Fatal(err)
		}
		f, err := e.Define("f")
		if err != nil {
			t.Fatal(err)
		}
		r := xrand.New(3)
		vals := make([]uint64, 100)
		for i := range vals {
			vals[i] = r.Uint64n(40)
		}
		// A segment rolls between records, so 16-row batches fill one each.
		for i := 0; i < len(vals); i += 16 {
			f.InsertBatch(vals[i:min(i+16, len(vals))])
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, o
	}

	t.Run("torn-last-segment-recovers", func(t *testing.T) {
		dir, o := build(t)
		// 100 ops in 16-row records, one per segment → last segment is s6.
		last := filepath.Join(dir, segFileName("f", 0, 6))
		lf, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lf.Write([]byte{0, 1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
		lf.Close()
		back, err := Open(o)
		if err != nil {
			t.Fatal(err)
		}
		defer back.Close()
		rel, err := back.Get("f")
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != 100 {
			t.Fatalf("recovered Len = %d, want 100", rel.Len())
		}
	})

	t.Run("torn-sealed-segment-fails", func(t *testing.T) {
		dir, o := build(t)
		sealed := filepath.Join(dir, segFileName("f", 0, 2))
		lf, err := os.OpenFile(sealed, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lf.Write([]byte{0, 1, 2}); err != nil {
			t.Fatal(err)
		}
		lf.Close()
		if _, err := Open(o); err == nil {
			t.Fatal("torn sealed segment accepted")
		}
	})

	t.Run("corrupt-sealed-segment-fails", func(t *testing.T) {
		dir, o := build(t)
		sealed := filepath.Join(dir, segFileName("f", 0, 1))
		data, err := os.ReadFile(sealed)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x20
		if err := os.WriteFile(sealed, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(o); err == nil {
			t.Fatal("corrupt sealed segment accepted")
		}
	})

	t.Run("missing-segment-fails", func(t *testing.T) {
		dir, o := build(t)
		if err := os.Remove(filepath.Join(dir, segFileName("f", 0, 3))); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(o); err == nil {
			t.Fatal("missing middle segment accepted")
		}
	})
}

// TestSegmentCheckpointRemovesAll: compaction after a checkpoint must
// delete every absorbed segment, not just the newest, and leave the
// relation on a fresh epoch-1 segment 0.
func TestSegmentCheckpointRemovesAll(t *testing.T) {
	dir := t.TempDir()
	o := durOpts(dir)
	o.SegmentOps = 16
	e, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	f, err := e.Define("f")
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]uint64, 100)
	for i := range vals {
		vals[i] = uint64(i)
	}
	for i := 0; i < len(vals); i += 16 { // one 16-row record per segment
		f.InsertBatch(vals[i:min(i+16, len(vals))])
	}
	if err := f.Drain(); err != nil {
		t.Fatal(err)
	}
	if n := e.maxLiveSegments(); n != 7 {
		t.Fatalf("%d live segments before the checkpoint, want 7", n)
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		name, epoch, seq, ok := relNameFromFile(ent.Name())
		if !ok {
			continue
		}
		if epoch != 1 || seq != 0 {
			t.Fatalf("stale segment %s (rel %q epoch %d seq %d) survived checkpoint", ent.Name(), name, epoch, seq)
		}
	}
	f.Insert(7)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	rel, err := back.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 101 {
		t.Fatalf("recovered Len = %d, want 101", rel.Len())
	}
}
