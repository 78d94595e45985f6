package oracle

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"sparseadapt/internal/engine"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/sim"
)

// TestRecordEngineMemoByteIdentical: a memoized recording must be
// byte-identical to the memoless reference, both on the filling pass and on
// a fully-memoized second pass. Run under -race in CI, which also covers
// concurrent memo access from the 4-worker pool.
func TestRecordEngineMemoByteIdentical(t *testing.T) {
	w, cfgs := recordWorkload(t)
	ref, err := RecordSource(chip, sim.DefaultBandwidth, kernels.Fixed(w), 0.05, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	refBytes := marshal(t, ref)

	memo := sim.NewRunMemo(0)
	for pass := 0; pass < 2; pass++ {
		eng := engine.New(engine.Options{Workers: 4})
		rec, err := RecordSourceEngine(context.Background(), eng, memo, chip, sim.DefaultBandwidth, kernels.Fixed(w), 0.05, cfgs)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if !bytes.Equal(marshal(t, rec), refBytes) {
			t.Fatalf("pass %d: memoized recording differs from memoless reference", pass)
		}
	}
	hits, misses := memo.Counts()
	if misses != int64(len(cfgs)) {
		t.Fatalf("memo misses = %d, want one per config (%d)", misses, len(cfgs))
	}
	if hits != int64(len(cfgs)) {
		t.Fatalf("memo hits = %d, want one per config on the second pass (%d)", hits, len(cfgs))
	}
}

// TestEngineParallelSpeedup asserts the worker pool actually speeds up
// oracle recording: workers=4 must beat workers=1 by a real margin on a
// non-trivial grid. Guarded: parallel speedup cannot exist with fewer than
// 4 schedulable CPUs, so the test skips there (single-CPU CI runners, the
// -race scheduler notwithstanding).
func TestEngineParallelSpeedup(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("GOMAXPROCS=%d: parallel speedup unmeasurable below 4", runtime.GOMAXPROCS(0))
	}
	if testing.Short() {
		t.Skip("timing test; skipped in -short mode")
	}
	w, cfgs := recordWorkload(t)

	record := func(workers int) time.Duration {
		t.Helper()
		eng := engine.New(engine.Options{Workers: workers})
		start := time.Now()
		if _, err := RecordSourceEngine(context.Background(), eng, nil, chip, sim.DefaultBandwidth, kernels.Fixed(w), 0.05, cfgs); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	record(1) // warm the trace's epoch aggregates so both timed runs see them

	t1 := record(1)
	t4 := record(4)
	// "Measurably faster": conservative 1.5x so scheduler noise on busy CI
	// machines cannot flake the test, while a re-serialized pool (the ~1.0x
	// regression this PR fixed) still fails it decisively.
	if t4 > t1*2/3 {
		t.Fatalf("workers=4 took %v vs %v at workers=1 (%.2fx); want >= 1.5x speedup",
			t4, t1, float64(t1)/float64(t4))
	}
}
