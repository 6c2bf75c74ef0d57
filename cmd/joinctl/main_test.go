package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"amstrack/internal/amsd"
	"amstrack/internal/engine"
	"amstrack/internal/xrand"
)

// TestOneShotJSONMatchesSingleNode: the one-shot -json answer over two
// nodes is JSON — even for a relation name with a DEL byte, which the
// engine accepts — and its numbers equal a single node's holding every
// row, pairwise and chain.
func TestOneShotJSONMatchesSingleNode(t *testing.T) {
	opts := engine.Options{SignatureWords: 256, ChainWords: 64, Seed: 42, SketchS1: 64, SketchS2: 4, Shards: 2}
	full, err := engine.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	var parts [2]*engine.Engine
	var urls string
	for i := range parts {
		if parts[i], err = engine.New(opts); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(amsd.NewServer(parts[i]))
		t.Cleanup(ts.Close)
		urls += ts.URL + ","
	}
	const f, g = "a\x7fb", "g"
	schemas := map[string]engine.Schema{
		f:    {},
		g:    {},
		"cf": {Attrs: []string{"a"}, EndA: []string{"a"}},
		"cg": {Attrs: []string{"a", "b"}, Middle: [][2]string{{"a", "b"}}},
		"ch": {Attrs: []string{"b"}, EndB: []string{"b"}},
	}
	r := xrand.New(5)
	for name, sc := range schemas {
		rels := make([]*engine.Relation, 0, 3)
		for _, e := range []*engine.Engine{full, parts[0], parts[1]} {
			rel, err := e.DefineSchema(name, sc)
			if err != nil {
				t.Fatal(err)
			}
			rels = append(rels, rel)
		}
		arity := rels[0].Arity()
		for i := 0; i < 600; i++ {
			row := make([]uint64, arity)
			for j := range row {
				row[j] = r.Uint64n(50)
			}
			rels[0].InsertTuple(row...)
			rels[1+i%2].InsertTuple(row...)
		}
	}

	oneShot := func(args ...string) map[string]any {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if err := run(context.Background(), append([]string{"-nodes", urls, "-json", "-strict"}, args...), &stdout, &stderr); err != nil {
			t.Fatalf("joinctl %q: %v (stderr %s)", args, err, stderr.String())
		}
		var m map[string]any
		if err := json.Unmarshal(stdout.Bytes(), &m); err != nil {
			t.Fatalf("joinctl %q: output is not JSON: %v\n%q", args, err, stdout.String())
		}
		return m
	}
	same := func(what string, m map[string]any, want map[string]any) {
		t.Helper()
		for k, v := range want {
			if m[k] != v {
				t.Errorf("%s: %s = %v, single node answers %v", what, k, m[k], v)
			}
		}
	}

	je, err := full.EstimateJoin(f, g)
	if err != nil {
		t.Fatal(err)
	}
	same("pairwise", oneShot("-f", f, "-g", g), map[string]any{
		"f": f, "g": g, "nodes": 2.0,
		"estimate": je.Estimate, "sigma": je.Sigma, "fact11": je.Fact11,
		"sjf": je.SJF, "sjg": je.SJG, "estimator": je.Estimator,
	})
	ce, err := full.EstimateChainJoin("cf", "a", "cg", "b", "ch")
	if err != nil {
		t.Fatal(err)
	}
	same("chain", oneShot("-chain", "-left", "cf", "-attr-a", "a", "-mid", "cg", "-attr-b", "b", "-right", "ch"), map[string]any{
		"f": "cf", "g": "cg", "h": "ch", "nodes": 2.0,
		"estimate": ce.Estimate, "sigma": ce.Sigma, "upper": ce.Upper,
		"sjf": ce.SJF, "sjg": ce.SJG, "sjh": ce.SJH, "k": float64(ce.K),
	})
}

// TestServeShutdown: joinctl -serve answers from its cache until the
// context main hands it is cancelled, then stops listening and returns
// cleanly.
func TestServeShutdown(t *testing.T) {
	eng, err := engine.New(engine.Options{SignatureWords: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	for _, name := range []string{"f", "g"} {
		if _, err := eng.Define(name); err != nil {
			t.Fatal(err)
		}
	}
	node := httptest.NewServer(amsd.NewServer(eng))
	t.Cleanup(node.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	_ = ln.Close() // released for the daemon to claim

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-serve", "-nodes", node.URL, "-relations", "f,g",
			"-listen", strings.TrimPrefix(base, "http://")}, io.Discard, io.Discard)
	}()
	client := &http.Client{Timeout: 5 * time.Second}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := client.Get(base + "/v1/join?f=f&g=g")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("cached join: status %d", resp.StatusCode)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never served: %v", err)
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited before serving: %v", err)
		case <-time.After(10 * time.Millisecond):
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown exit = %v, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if _, err := client.Get(base + "/healthz"); err == nil {
		t.Fatal("daemon still accepting after shutdown")
	}
}
