package coord

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"amstrack/internal/engine"
	"amstrack/internal/xrand"
)

// TestFetchRetryFlakyNode: a node that 500s twice before answering must
// succeed under the retry policy, with exponentially growing (jittered)
// backoff between attempts — and a 404 must NOT burn retries.
func TestFetchRetryFlakyNode(t *testing.T) {
	eng, err := engine.New(nodeOpts())
	if err != nil {
		t.Fatal(err)
	}
	define(t, eng, "orders")
	r, _ := eng.Get("orders")
	r.InsertBatch([]uint64{1, 2, 3})
	blob, err := eng.ExportRelation("orders")
	if err != nil {
		t.Fatal(err)
	}

	var calls, notFoundCalls int
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.Contains(req.URL.Path, "ghost") {
			notFoundCalls++
			http.Error(w, `{"error":"unknown relation"}`, http.StatusNotFound)
			return
		}
		calls++
		if calls <= 2 {
			http.Error(w, "restarting", http.StatusInternalServerError)
			return
		}
		w.Write(blob)
	}))
	t.Cleanup(flaky.Close)

	fx := NewFetcher(&http.Client{}, 3, 100*time.Millisecond)
	var sleeps []time.Duration
	fx.sleep = func(d time.Duration) { sleeps = append(sleeps, d) }

	b, err := fx.FetchBundle(flaky.URL, "orders")
	if err != nil {
		t.Fatalf("flaky node not retried: %v", err)
	}
	if b.Rows != 3 || calls != 3 {
		t.Fatalf("rows=%d calls=%d", b.Rows, calls)
	}
	if len(sleeps) != 2 {
		t.Fatalf("backoff sleeps = %v, want 2", sleeps)
	}
	// Jittered exponential: first wait in [50ms, 100ms), second in
	// [100ms, 200ms) — strictly longer.
	if sleeps[0] < 50*time.Millisecond || sleeps[0] >= 100*time.Millisecond ||
		sleeps[1] < 100*time.Millisecond || sleeps[1] >= 200*time.Millisecond {
		t.Fatalf("backoff sleeps = %v, want jittered doubling from 100ms", sleeps)
	}

	// 404 is definitive: one request, no sleeps, ErrNotFound.
	sleeps = nil
	if _, err := fx.FetchBundle(flaky.URL, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("404 err = %v, want ErrNotFound", err)
	}
	if notFoundCalls != 1 || len(sleeps) != 0 {
		t.Fatalf("404 was retried: calls=%d sleeps=%v", notFoundCalls, sleeps)
	}
}

// TestPersistentFailureNamesNode: when a node stays down past the retry
// budget, the coordinator's error names the node and the attempt count —
// the operator must not have to guess which of N nodes is sick.
func TestPersistentFailureNamesNode(t *testing.T) {
	healthy, ts := newNode(t)
	define(t, healthy, "orders")
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "on fire", http.StatusInternalServerError)
	}))
	t.Cleanup(dead.Close)

	fx := NewFetcher(&http.Client{}, 3, time.Millisecond)
	fx.sleep = func(time.Duration) {}
	_, _, err := MergeAcross(fx, []string{ts.URL, dead.URL}, "orders", true, nil)
	if err == nil {
		t.Fatal("persistently failing node accepted")
	}
	for _, want := range []string{dead.URL, "3 attempts"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
}

// TestBackoffDeepRetriesNeverOverflow is the regression test for the
// shift-overflow bug: `backoff << (attempt-1)` goes negative around
// attempt 40 (time.Duration is an int64), which skipped the jitter draw
// and handed time.Sleep a negative duration — zero wait, so the late
// retries of a long outage turned into a busy retry storm. Every wait
// through attempt 50 must be positive, never above the ~30s cap, and
// non-decreasing in expectation (each wait's lower bound is half the
// clamped exponential, so asserting wait >= previous/2 is exact, not
// flaky).
func TestBackoffDeepRetriesNeverOverflow(t *testing.T) {
	fx := NewFetcher(&http.Client{}, 50, 100*time.Millisecond)
	var sleeps []time.Duration
	fx.sleep = func(d time.Duration) { sleeps = append(sleeps, d) }
	for attempt := 1; attempt <= 50; attempt++ {
		fx.pause(attempt)
	}
	if len(sleeps) != 50 {
		t.Fatalf("got %d sleeps, want 50", len(sleeps))
	}
	for i, d := range sleeps {
		if d <= 0 {
			t.Fatalf("attempt %d slept %v — the overflow bug is back", i+1, d)
		}
		if d > xrand.MaxBackoff {
			t.Fatalf("attempt %d slept %v, above the %v cap", i+1, d, xrand.MaxBackoff)
		}
		if i > 0 && d < sleeps[i-1]/2 {
			t.Fatalf("attempt %d slept %v after %v — waits collapsed instead of growing", i+1, d, sleeps[i-1])
		}
	}
	// The tail must sit at the cap's jitter band [cap/2, cap), not at
	// some overflowed wraparound.
	last := sleeps[len(sleeps)-1]
	if last < xrand.MaxBackoff/2 || last >= xrand.MaxBackoff {
		t.Fatalf("attempt 50 slept %v, want within [%v, %v)", last, xrand.MaxBackoff/2, xrand.MaxBackoff)
	}
}

// TestFetchJitterSeedsDiffer: two fetchers built back-to-back must draw
// different jitter sequences. The old seed was time.Now().UnixNano()
// alone, so a supervisor restarting a fleet in one tick gave every
// coordinator the SAME backoff schedule — a synchronized retry storm
// against whichever node they were all waiting on.
func TestFetchJitterSeedsDiffer(t *testing.T) {
	draw := func(fx *Fetcher) []time.Duration {
		var sleeps []time.Duration
		fx.sleep = func(d time.Duration) { sleeps = append(sleeps, d) }
		for attempt := 1; attempt <= 8; attempt++ {
			fx.pause(attempt)
		}
		return sleeps
	}
	a := draw(NewFetcher(&http.Client{}, 9, time.Second))
	b := draw(NewFetcher(&http.Client{}, 9, time.Second))
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatalf("two fetchers drew identical jitter sequences %v — seeds are not independent", a)
	}
}

// TestFetchConcurrentRetries: one Fetcher is shared by many goroutines
// (the daemon's refresh loops, the router's prober and adopters), so
// their retry pauses draw jitter concurrently. The draw must be
// synchronized — run under -race.
func TestFetchConcurrentRetries(t *testing.T) {
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "restarting", http.StatusServiceUnavailable)
	}))
	t.Cleanup(down.Close)

	fx := NewFetcher(&http.Client{}, 3, time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := fx.FetchStat(down.URL, "orders"); err == nil {
				t.Error("stat from a 503 node succeeded")
			}
		}()
	}
	wg.Wait()
}

// TestFetchResponseCap is the regression test for the unbounded
// io.ReadAll: a node (or an imposter on its port) answering with more
// bytes than the cap must fail with a clear error naming the cap — and
// must NOT be retried, since the body will not shrink next attempt.
func TestFetchResponseCap(t *testing.T) {
	var calls int
	huge := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls++
		big := make([]byte, 1<<20)
		_, _ = w.Write(big)
	}))
	t.Cleanup(huge.Close)

	fx := NewFetcher(&http.Client{}, 3, time.Millisecond)
	fx.sleep = func(time.Duration) {}
	fx.SetMaxBody(64 << 10)
	_, err := fx.FetchBundle(huge.URL, "orders")
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized response err = %v, want ErrTooLarge", err)
	}
	if !strings.Contains(err.Error(), "65536") {
		t.Fatalf("error %q does not name the cap", err)
	}
	if calls != 1 {
		t.Fatalf("oversized response fetched %d times — truncation must not retry", calls)
	}

	// At the cap exactly is fine (the +1 headroom must not misfire) —
	// proven with a real bundle whose size IS the cap.
	eng, err := engine.New(nodeOpts())
	if err != nil {
		t.Fatal(err)
	}
	define(t, eng, "orders")
	blob, err := eng.ExportRelation("orders")
	if err != nil {
		t.Fatal(err)
	}
	exact := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write(blob)
	}))
	t.Cleanup(exact.Close)
	fx.SetMaxBody(int64(len(blob)))
	if _, err := fx.FetchBundle(exact.URL, "orders"); err != nil {
		t.Fatalf("bundle exactly at the cap rejected: %v", err)
	}
}

// TestFetchStat: the stat probe decodes the node's stamp and honors the
// same 404 semantics as the bundle fetch.
func TestFetchStat(t *testing.T) {
	eng, ts := newNode(t)
	define(t, eng, "orders")
	r, _ := eng.Get("orders")
	r.InsertBatch([]uint64{1, 2, 3})

	fx := testFetcher()
	st, err := fx.FetchStat(ts.URL, "orders")
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != 3 || st.Rows != 3 || st.Epoch != 0 {
		t.Fatalf("stat = %+v, want seq=3 rows=3 epoch=0", st)
	}
	if _, err := fx.FetchStat(ts.URL, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stat 404 err = %v, want ErrNotFound", err)
	}
}
