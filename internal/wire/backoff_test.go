package wire

import (
	"math"
	"testing"
	"time"

	"amstrack/internal/xrand"
)

// TestPauseBackoffCapped pins the redial backoff fix: with a large
// user-set RetryBackoff and a deep failure streak, the old
// `RetryBackoff << shift` doubling overflowed time.Duration into a
// negative sleep — a zero-backoff retry storm against a node trying to
// recover. Every pause must now be positive and ≤ xrand.MaxBackoff at any
// streak depth and any configured backoff.
func TestPauseBackoffCapped(t *testing.T) {
	cases := []struct {
		name    string
		backoff time.Duration
		fails   []int
	}{
		{"default", 0, []int{1, 2, 3, 10, 50, 63, 64, 200}},
		{"one-second", time.Second, []int{1, 2, 5, 10, 63, 1000}},
		{"huge", math.MaxInt64 / 2, []int{1, 2, 10, 63, 200}},
		{"already-over-cap", 2 * xrand.MaxBackoff, []int{1, 5, 100}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{RetryBackoff: tc.backoff}.withDefaults()
			var slept time.Duration
			cc := &clientConn{
				opts:  &opts,
				rng:   xrand.New(1),
				sleep: func(d time.Duration) { slept = d },
			}
			for _, fails := range tc.fails {
				cc.fails = fails
				slept = -1
				cc.mu.Lock()
				cc.pause()
				cc.mu.Unlock()
				if slept <= 0 {
					t.Fatalf("fails=%d backoff=%v: slept %v, want positive", fails, tc.backoff, slept)
				}
				if slept > xrand.MaxBackoff {
					t.Fatalf("fails=%d backoff=%v: slept %v, want ≤ %v", fails, tc.backoff, slept, xrand.MaxBackoff)
				}
			}
		})
	}
}

// TestPauseBackoffGrows sanity-checks that the cap did not flatten the
// schedule: under the default backoff, deeper streaks wait longer (up
// to the cap) — the lower jitter bound d/2 must be monotone until it
// saturates.
func TestPauseBackoffGrows(t *testing.T) {
	opts := Options{}.withDefaults()
	floor := func(fails int) time.Duration {
		d := opts.RetryBackoff
		for i := 1; i < fails && d < xrand.MaxBackoff; i++ {
			if d > xrand.MaxBackoff/2 {
				d = xrand.MaxBackoff
				break
			}
			d <<= 1
		}
		if d > xrand.MaxBackoff {
			d = xrand.MaxBackoff
		}
		return d / 2
	}
	prev := time.Duration(-1)
	for fails := 1; fails <= 20; fails++ {
		f := floor(fails)
		if f < prev {
			t.Fatalf("fails=%d: jitter floor %v shrank from %v", fails, f, prev)
		}
		prev = f
	}
	if prev != xrand.MaxBackoff/2 {
		t.Fatalf("deep-streak jitter floor = %v, want saturation at %v", prev, xrand.MaxBackoff/2)
	}
}
