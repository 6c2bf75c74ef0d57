package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBench(t *testing.T, dir, name string, fast, flat float64, k int) string {
	t.Helper()
	path := filepath.Join(dir, name)
	body := fmt.Sprintf(`{"experiment":"fastjoin","k":%d,"flat_ns_per_update":%g,"fast_ns_per_update":%g}`,
		k, flat, fast)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGateNormalized: the normalized metric passes within tolerance and
// fails beyond it, even when raw nanoseconds moved a lot (slower machine,
// same ratio).
func TestGateNormalized(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", 10, 1000, 1024) // ratio 0.01

	// 3x slower machine, ratio unchanged → pass.
	cur := writeBench(t, dir, "ok.json", 30, 3000, 1024)
	var out strings.Builder
	if err := run(cur, base, 0.25, "normalized", false, &out); err != nil {
		t.Fatalf("same-ratio run failed: %v", err)
	}
	if !strings.Contains(out.String(), "regression=+0.0%") {
		t.Fatalf("output: %s", out.String())
	}

	// Ratio 20% worse → still within 25% tolerance.
	cur = writeBench(t, dir, "warm.json", 12, 1000, 1024)
	if err := run(cur, base, 0.25, "normalized", false, &out); err != nil {
		t.Fatalf("20%% regression rejected at 25%% tolerance: %v", err)
	}

	// Ratio 50% worse → fail.
	cur = writeBench(t, dir, "bad.json", 15, 1000, 1024)
	if err := run(cur, base, 0.25, "normalized", false, &out); err == nil {
		t.Fatal("50% regression passed the 25% gate")
	}
}

// TestGateAbsolute: the absolute metric gates raw fast ns/op.
func TestGateAbsolute(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", 100, 5000, 1024)
	var out strings.Builder
	ok := writeBench(t, dir, "ok.json", 110, 9000, 1024)
	if err := run(ok, base, 0.25, "absolute", false, &out); err != nil {
		t.Fatalf("10%% absolute regression rejected: %v", err)
	}
	bad := writeBench(t, dir, "bad.json", 130, 100, 1024)
	if err := run(bad, base, 0.25, "absolute", false, &out); err == nil {
		t.Fatal("30% absolute regression passed")
	}
}

// TestGateValidation: malformed inputs, wrong experiment, k drift, and
// bad flags all error instead of green-lighting garbage.
func TestGateValidation(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", 10, 1000, 1024)
	cur := writeBench(t, dir, "cur.json", 10, 1000, 1024)
	var out strings.Builder

	if err := run(cur, filepath.Join(dir, "missing.json"), 0.25, "normalized", false, &out); err == nil {
		t.Fatal("missing baseline accepted")
	}
	if err := run(cur, base, 0.25, "vibes", false, &out); err == nil {
		t.Fatal("unknown metric accepted")
	}
	if err := run(cur, base, -1, "normalized", false, &out); err == nil {
		t.Fatal("negative tolerance accepted")
	}
	drift := writeBench(t, dir, "drift.json", 10, 1000, 2048)
	if err := run(drift, base, 0.25, "normalized", false, &out); err == nil {
		t.Fatal("k drift accepted without baseline refresh")
	}
	junk := filepath.Join(dir, "junk.json")
	if err := os.WriteFile(junk, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(junk, base, 0.25, "normalized", false, &out); err == nil {
		t.Fatal("non-JSON measurement accepted")
	}
	wrong := filepath.Join(dir, "wrong.json")
	if err := os.WriteFile(wrong, []byte(`{"experiment":"fastacc","k":1,"flat_ns_per_update":1,"fast_ns_per_update":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(wrong, base, 0.25, "normalized", false, &out); err == nil {
		t.Fatal("wrong experiment accepted")
	}
	// A measurement without its reference path has nothing to gate on.
	noRef := filepath.Join(dir, "noref.json")
	if err := os.WriteFile(noRef, []byte(`{"experiment":"fastjoin","k":1024,"fast_ns_per_update":10}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(noRef, base, 0.25, "normalized", false, &out); err == nil {
		t.Fatal("measurement without a reference path accepted")
	}
}

// TestGateUpdateBaseline: -update-baseline copies the measurement over
// the baseline, after which the gate passes exactly.
func TestGateUpdateBaseline(t *testing.T) {
	dir := t.TempDir()
	cur := writeBench(t, dir, "cur.json", 42, 999, 1024)
	basePath := filepath.Join(dir, "new-base.json")
	var out strings.Builder
	if err := run(cur, basePath, 0.25, "normalized", true, &out); err != nil {
		t.Fatal(err)
	}
	if err := run(cur, basePath, 0.25, "normalized", false, &out); err != nil {
		t.Fatalf("gate against refreshed baseline failed: %v", err)
	}
}

func writeWireBench(t *testing.T, dir, name string, wire, http float64, k int) string {
	t.Helper()
	path := filepath.Join(dir, name)
	body := fmt.Sprintf(`{"experiment":"wireingest","k":%d,"http_ns_per_row":%g,"wire_ns_per_row":%g}`,
		k, http, wire)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGateWireIngest: the wireingest gate reads the wire/http pair and
// normalizes the same way, so a slower runner with the same transport
// contrast still passes.
func TestGateWireIngest(t *testing.T) {
	dir := t.TempDir()
	base := writeWireBench(t, dir, "base.json", 80, 300, 64) // ratio 0.267
	var out strings.Builder

	// Slower machine, same ratio → pass.
	ok := writeWireBench(t, dir, "ok.json", 160, 600, 64)
	if err := run(ok, base, 0.5, "normalized", false, &out); err != nil {
		t.Fatalf("same-ratio wireingest run failed: %v", err)
	}
	if !strings.Contains(out.String(), "experiment=wireingest") {
		t.Fatalf("output: %s", out.String())
	}

	// Wire path lost its edge (ratio 0.53, double the baseline) → fail
	// at 50% tolerance.
	bad := writeWireBench(t, dir, "bad.json", 160, 300, 64)
	if err := run(bad, base, 0.5, "normalized", false, &out); err == nil {
		t.Fatal("2x wire-transport regression passed the 50% gate")
	}

	// Experiment mismatch between bench and baseline must error.
	fj := writeBench(t, dir, "fastjoin.json", 10, 1000, 64)
	if err := run(fj, base, 0.5, "normalized", false, &out); err == nil {
		t.Fatal("fastjoin measurement gated against wireingest baseline")
	}
}
