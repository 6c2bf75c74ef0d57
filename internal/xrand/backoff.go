package xrand

import (
	crand "crypto/rand"
	"encoding/binary"
	"os"
	"time"
)

// Seed seeds a jitter generator — a retry backoff, a refresh or probe
// loop, a checkpoint timer — from crypto/rand, falling back to the clock
// mixed with the PID. Daemons a supervisor starts in one clock tick must
// not share a jitter sequence: jitter in lockstep spreads nothing. Seed
// is for timing only; anything that must reproduce takes an explicit
// seed.
func Seed() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		return binary.LittleEndian.Uint64(b[:])
	}
	return Mix64(uint64(time.Now().UnixNano())) ^ Mix64(uint64(os.Getpid())<<1|1)
}

// MaxBackoff caps Backoff. Past ~30s a peer is down, not busy: longer
// waits only delay the caller's error.
const MaxBackoff = 30 * time.Second

// Backoff draws the wait before retry attempt (1-based): base doubled
// attempt-1 times, clamped at MaxBackoff, with full jitter in [d/2, d)
// so a fleet of clients retrying one recovering node desynchronizes.
// The doubling shifts one overflow-guarded step at a time: an unchecked
// `base << (attempt-1)` goes negative around attempt 40, and a negative
// sleep is no wait at all — a busy retry storm. The coordinator's
// fetcher and the amswire client both retry on it.
func (r *Rand) Backoff(base time.Duration, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt && d < MaxBackoff; i++ {
		if d > MaxBackoff/2 { // next shift would pass (or overflow past) the cap
			d = MaxBackoff
			break
		}
		d <<= 1
	}
	if d > MaxBackoff {
		d = MaxBackoff
	}
	if half := d / 2; half > 0 {
		d = half + time.Duration(r.Uint64n(uint64(half)))
	}
	return d
}
