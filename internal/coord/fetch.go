// Package coord is the coordinator serving tier: the logic joinctl grew
// out of. It pulls per-partition synopsis bundles from N amsd nodes,
// merges each relation's partitions into the synopses of the union —
// EXACT, by linearity of the AGMS summaries, provided every node runs
// the same seed and shape options — and estimates joins with the paper's
// bounds attached. On top of the one-shot Coordinate/CoordinateChain
// calls it layers a Daemon: a per-(node, relation) versioned bundle
// cache kept warm by background refresh loops that poll the nodes' cheap
// freshness-stamp endpoint and refetch only what changed, so join
// queries are answered from memory with zero node round trips.
package coord

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"time"

	"amstrack/internal/amsd"
	"amstrack/internal/engine"
	"amstrack/internal/xrand"
)

// ErrNotFound marks a 404 from a node: the relation is not defined there.
// It is the engine's own ErrUnknownRelation, so a tier that passes it on
// answers 404 as the node did.
var ErrNotFound = engine.ErrUnknownRelation

// ErrTooLarge marks a response body that overran the fetcher's bundle
// cap. It is definitive, not retryable: the node's bundle will not
// shrink on the next attempt, and retrying a multi-megabyte download is
// exactly the bandwidth waste the cap exists to stop.
var ErrTooLarge = errors.New("bundle exceeds the response size cap")

// DefaultMaxBody caps fetched response bodies: generous enough for
// k≈10⁶ bundles with chain sections, small enough that a misconfigured
// or hostile node cannot balloon the coordinator. joinctl's
// -max-bundle-mb flag overrides it.
const DefaultMaxBody = 64 << 20

// Fetcher wraps an HTTP client with the coordinator's retry policy:
// every node request gets up to retries attempts, each with the client's
// full timeout budget, separated by exponential backoff with full jitter
// in [d/2, d). Transport errors and 5xx responses retry (the node may be
// restarting or mid-recovery); 4xx responses are definitive and fail
// immediately. Response bodies are capped at MaxBody.
//
// A Fetcher is safe for concurrent use by multiple goroutines.
type Fetcher struct {
	client  *http.Client
	retries int           // attempts per request, >= 1
	backoff time.Duration // base delay before the second attempt; 0 disables waiting
	maxBody int64         // response body cap in bytes

	sleep func(time.Duration) // test seam; nil means time.Sleep
	mu    sync.Mutex          // guards rng
	rng   *xrand.Rand
}

// NewFetcher builds a fetcher with the default response cap. retries
// below 1 is treated as 1; backoff 0 retries without waiting.
func NewFetcher(client *http.Client, retries int, backoff time.Duration) *Fetcher {
	if retries < 1 {
		retries = 1
	}
	return &Fetcher{client: client, retries: retries, backoff: backoff,
		maxBody: DefaultMaxBody, rng: xrand.New(xrand.Seed())}
}

// SetMaxBody overrides the response body cap in bytes (<= 0 restores the
// default). Call before the fetcher is shared across goroutines.
func (fx *Fetcher) SetMaxBody(n int64) {
	if n <= 0 {
		n = DefaultMaxBody
	}
	fx.maxBody = n
}

// pause sleeps the jittered exponential backoff before retry attempt
// (1-based; xrand.Backoff).
func (fx *Fetcher) pause(attempt int) {
	if fx.backoff <= 0 {
		return
	}
	fx.mu.Lock()
	d := fx.rng.Backoff(fx.backoff, attempt)
	fx.mu.Unlock()
	if fx.sleep != nil {
		fx.sleep(d)
	} else {
		time.Sleep(d)
	}
}

// RelPath escapes a relation name for the /v1/signatures/{name...}
// route. Names may contain '/' (the route is multi-segment), so each
// segment is escaped separately; anything else ('?', '#', spaces) must
// not leak into the URL as syntax.
func RelPath(rel string) string {
	segs := strings.Split(rel, "/")
	for i, s := range segs {
		segs[i] = url.PathEscape(s)
	}
	return strings.Join(segs, "/")
}

// retry drives one logical request through the retry policy. op performs
// a single attempt and reports whether its failure is worth another try.
func (fx *Fetcher) retry(op func() (retryable bool, err error)) error {
	var lastErr error
	for attempt := 0; attempt < fx.retries; attempt++ {
		if attempt > 0 {
			fx.pause(attempt)
		}
		retryable, err := op()
		if err == nil {
			return nil
		}
		if !retryable {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("%d attempts exhausted: %w", fx.retries, lastErr)
}

// readCapped reads the whole response body, enforcing the fetcher's cap.
// The extra byte of headroom distinguishes "exactly at the cap" from
// "overran it" without trusting Content-Length.
func (fx *Fetcher) readCapped(body io.Reader) ([]byte, bool, error) {
	data, err := io.ReadAll(io.LimitReader(body, fx.maxBody+1))
	if err != nil {
		return nil, true, err
	}
	if int64(len(data)) > fx.maxBody {
		return nil, false, fmt.Errorf("%w (%d-byte cap; raise -max-bundle-mb if the bundle is legitimately this large)", ErrTooLarge, fx.maxBody)
	}
	return data, false, nil
}

// call makes ONE request and classifies the outcome for the retry
// policy. A status listed in ok is success and returns the capped body;
// a 404 not listed is ErrNotFound; a transport error or 5xx is
// retryable; any other status is definitive. A non-nil body is sent
// with content type ctype.
func (fx *Fetcher) call(method, target, ctype string, body []byte, ok ...int) (data []byte, retryable bool, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, target, rd)
	if err != nil {
		return nil, false, err
	}
	if body != nil {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := fx.client.Do(req)
	if err != nil {
		return nil, true, err
	}
	defer resp.Body.Close()
	if data, retryable, err = fx.readCapped(resp.Body); err != nil {
		return nil, retryable, err
	}
	switch {
	case slices.Contains(ok, resp.StatusCode):
		return data, false, nil
	case resp.StatusCode == http.StatusNotFound:
		return nil, false, ErrNotFound
	}
	return nil, resp.StatusCode >= 500, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
}

// request drives call through the retry policy.
func (fx *Fetcher) request(method, target, ctype string, body []byte, ok ...int) ([]byte, error) {
	var out []byte
	err := fx.retry(func() (bool, error) {
		data, retryable, err := fx.call(method, target, ctype, body, ok...)
		out = data
		return retryable, err
	})
	return out, err
}

// getJSON GETs target under the retry policy and decodes the JSON answer
// into out; what names the payload in a decode error. A malformed answer
// is definitive, not retried.
func (fx *Fetcher) getJSON(target, what string, out any) error {
	data, err := fx.request(http.MethodGet, target, "", nil, http.StatusOK)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("decode %s: %w", what, err)
	}
	return nil
}

// FetchBundleBytes GETs one relation's serialized synopsis bundle from
// one node, retrying transient failures per the fetcher's policy. A
// persistent failure reports how many attempts were burned; callers
// prefix the node URL so the operator knows exactly which node is down.
func (fx *Fetcher) FetchBundleBytes(node, rel string) ([]byte, error) {
	return fx.request(http.MethodGet, node+"/v1/signatures/"+RelPath(rel), "", nil, http.StatusOK)
}

// FetchBundle fetches and decodes one relation's bundle.
func (fx *Fetcher) FetchBundle(node, rel string) (*engine.RelationBundle, error) {
	raw, err := fx.FetchBundleBytes(node, rel)
	if err != nil {
		return nil, err
	}
	b := &engine.RelationBundle{}
	if err := b.UnmarshalBinary(raw); err != nil {
		return nil, err
	}
	return b, nil
}

// FetchStat polls one relation's freshness stamp from one node's
// GET /v1/signatures/{name}?stat=1 — the cheap probe (no synopsis
// serialization, a ~100-byte JSON body) the daemon's refresh loops send
// every interval. An unchanged stamp guarantees the node's export bytes
// are unchanged, so a cached copy with the same stamp is still exact.
func (fx *Fetcher) FetchStat(node, rel string) (amsd.SignatureStatBody, error) {
	var st amsd.SignatureStatBody
	err := fx.getJSON(node+"/v1/signatures/"+RelPath(rel)+"?stat=1", "stat", &st)
	return st, err
}
