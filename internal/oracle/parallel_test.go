package oracle

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"sparseadapt/internal/config"
	"sparseadapt/internal/engine"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/sim"
)

// recordWorkload builds the small deterministic workload + sample the
// parallel tests record.
func recordWorkload(t *testing.T) (kernels.Workload, []config.Config) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	am := matrix.Uniform(rng, 96, 96, 900)
	_, w, err := kernels.SpMSpM(am.ToCSC(), am.ToCSR(), chip.NGPE(), chip.Tiles)
	if err != nil {
		t.Fatal(err)
	}
	return w, SampleConfigs(rng, 12, config.CacheMode)
}

// marshal serializes a recording for byte comparison.
func marshal(t *testing.T, rec *Recording) []byte {
	t.Helper()
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRecordDeterministicAcrossWorkers is the paper-methodology guarantee:
// the stitched oracle grid must be byte-identical whether recorded
// serially, with 4 workers, with 8 workers, or re-assembled from a warm
// content-addressed cache. Run under -race in CI.
func TestRecordDeterministicAcrossWorkers(t *testing.T) {
	w, cfgs := recordWorkload(t)
	ref, err := RecordSource(chip, sim.DefaultBandwidth, kernels.Fixed(w), 0.05, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	refBytes := marshal(t, ref)

	cache, err := engine.NewCache(256, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		eng := engine.New(engine.Options{Workers: workers, Cache: cache})
		rec, err := RecordSourceEngine(context.Background(), eng, nil, chip, sim.DefaultBandwidth, kernels.Fixed(w), 0.05, cfgs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(marshal(t, rec), refBytes) {
			t.Fatalf("recording differs from serial reference at %d workers", workers)
		}
	}
	// The second and third runs above were warm: every row must have come
	// from cache, not re-simulation.
	hits, misses, _ := cache.Counts()
	if misses != int64(len(cfgs)) {
		t.Fatalf("cache misses = %d, want one per config (%d)", misses, len(cfgs))
	}
	if hits != int64(2*len(cfgs)) {
		t.Fatalf("cache hits = %d, want %d (two fully warm reruns)", hits, 2*len(cfgs))
	}
}

// TestRecordCachedAcrossRestart runs the same recording through two engines
// sharing only the disk tier, asserting the second run is near-zero
// recompute and still byte-identical.
func TestRecordCachedAcrossRestart(t *testing.T) {
	w, cfgs := recordWorkload(t)
	dir := t.TempDir()

	c1, err := engine.NewCache(256, dir)
	if err != nil {
		t.Fatal(err)
	}
	e1 := engine.New(engine.Options{Workers: 4, Cache: c1})
	rec1, err := RecordSourceEngine(context.Background(), e1, nil, chip, sim.DefaultBandwidth, kernels.Fixed(w), 0.05, cfgs)
	if err != nil {
		t.Fatal(err)
	}

	c2, err := engine.NewCache(256, dir) // fresh process, warm disk
	if err != nil {
		t.Fatal(err)
	}
	e2 := engine.New(engine.Options{Workers: 4, Cache: c2})
	rec2, err := RecordSourceEngine(context.Background(), e2, nil, chip, sim.DefaultBandwidth, kernels.Fixed(w), 0.05, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, rec1), marshal(t, rec2)) {
		t.Fatal("disk-cached recording differs from original")
	}
	if hits, misses, _ := c2.Counts(); misses != 0 || hits != int64(len(cfgs)) {
		t.Fatalf("restart run not served from disk: hits=%d misses=%d", hits, misses)
	}
}

// TestRecordEngineCancel verifies recording honours context cancellation.
func TestRecordEngineCancel(t *testing.T) {
	w, cfgs := recordWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RecordSourceEngine(ctx, engine.New(engine.Options{Workers: 2}), nil, chip, sim.DefaultBandwidth, kernels.Fixed(w), 0.05, cfgs); err == nil {
		t.Fatal("cancelled recording returned nil error")
	}
}

// TestTraceFingerprintStability: equal traces agree, perturbed traces
// differ — the workload-identity half of the cache key.
func TestTraceFingerprintStability(t *testing.T) {
	w, _ := recordWorkload(t)
	if w.Trace.Fingerprint() != w.Trace.Fingerprint() {
		t.Fatal("fingerprint not deterministic")
	}
	rng := rand.New(rand.NewSource(2)) // different matrix → different trace
	am := matrix.Uniform(rng, 96, 96, 900)
	_, w2, err := kernels.SpMSpM(am.ToCSC(), am.ToCSR(), chip.NGPE(), chip.Tiles)
	if err != nil {
		t.Fatal(err)
	}
	if w.Trace.Fingerprint() == w2.Trace.Fingerprint() {
		t.Fatal("distinct traces share a fingerprint")
	}
}
