package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
BenchmarkFast-8        	 1000000	       100 ns/op	       0 B/op	       5 allocs/op
BenchmarkSlow-16       	     100	     50000 ns/op
BenchmarkSlow-16       	     100	     48000 ns/op
ok  	example	1.2s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.ns) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(got.ns), got.ns)
	}
	if got.ns["BenchmarkFast"] != 100 {
		t.Errorf("BenchmarkFast = %v, want 100 (GOMAXPROCS suffix stripped)", got.ns["BenchmarkFast"])
	}
	if got.ns["BenchmarkSlow"] != 48000 {
		t.Errorf("BenchmarkSlow = %v, want min of repeated runs 48000", got.ns["BenchmarkSlow"])
	}
	if got.allocs["BenchmarkFast"] != 5 {
		t.Errorf("BenchmarkFast allocs = %v, want 5", got.allocs["BenchmarkFast"])
	}
	if got.procs != 16 {
		t.Errorf("procs = %d, want max suffix 16", got.procs)
	}
}

func TestWriteThenCompare(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "base.json")
	in := filepath.Join(dir, "bench.out")
	if err := os.WriteFile(in, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if code := run([]string{"-write", "-baseline", baseline, in}, &out); code != 0 {
		t.Fatalf("write failed (%d): %s", code, out.String())
	}

	// Identical input: clean comparison, exit 0.
	out.Reset()
	if code := run([]string{"-baseline", baseline, in}, &out); code != 0 {
		t.Fatalf("compare failed (%d): %s", code, out.String())
	}
	if strings.Contains(out.String(), "WARN") {
		t.Fatalf("identical run warned: %s", out.String())
	}

	// Regressed input: warn by default (exit 0), fail with -fail.
	slow := filepath.Join(dir, "slow.out")
	if err := os.WriteFile(slow, []byte(strings.ReplaceAll(sample, "       100 ns/op", "       200 ns/op")), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"-baseline", baseline, slow}, &out); code != 0 {
		t.Fatalf("warn-only compare exited %d: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "WARN") {
		t.Fatalf("regression not flagged: %s", out.String())
	}
	out.Reset()
	if code := run([]string{"-fail", "-baseline", baseline, slow}, &out); code != 1 {
		t.Fatalf("-fail compare exited %d, want 1: %s", code, out.String())
	}
}

func TestGroupNames(t *testing.T) {
	cases := map[string]string{
		"BenchmarkEngineOracleRecord/workers=8": "engine",
		"BenchmarkEngineCacheWarm":              "engine",
		"BenchmarkSimRunEpoch":                  "sim",
		"BenchmarkSimReplay/spmspv/spm":         "sim",
		"BenchmarkTrainEnsemble":                "ml",
		"BenchmarkParseMatrixMarket/parser":     "matrix",
		"BenchmarkCOOToCSC/reference":           "matrix",
		"BenchmarkCounterAdd":                   "obs",
		"BenchmarkGoldenDigest":                 "obs",
		"BenchmarkFigure8":                      "figure",
		"BenchmarkTable6":                       "figure",
	}
	for name, want := range cases {
		if got := group(name); got != want {
			t.Errorf("group(%s) = %s, want %s", name, got, want)
		}
	}
}

// TestWarnLinesNameGroup checks a regression warning carries its subsystem
// group so CI logs are greppable per subsystem.
func TestWarnLinesNameGroup(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "base.json")
	const engSample = "BenchmarkEngineCacheWarm-8 \t 100\t 1000 ns/op\n"
	in := filepath.Join(dir, "bench.out")
	if err := os.WriteFile(in, []byte(engSample), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if code := run([]string{"-write", "-baseline", baseline, in}, &out); code != 0 {
		t.Fatalf("write failed: %s", out.String())
	}
	slow := filepath.Join(dir, "slow.out")
	if err := os.WriteFile(slow, []byte(strings.ReplaceAll(engSample, "1000 ns/op", "1500 ns/op")), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	run([]string{"-baseline", baseline, slow}, &out)
	if !strings.Contains(out.String(), "[engine] WARN") {
		t.Fatalf("warning does not name the engine group: %s", out.String())
	}
}

// TestHotPathThreshold checks the engine hot-path benchmarks warn at 10%
// even though the default threshold is 15%.
func TestHotPathThreshold(t *testing.T) {
	if th := thresholdFor("BenchmarkEngineOracleRecord/workers=1", 0.15); th != 0.10 {
		t.Errorf("oracle-record threshold = %v, want 0.10", th)
	}
	if th := thresholdFor("BenchmarkEngineCacheCold", 0.15); th != 0.10 {
		t.Errorf("engine-cache threshold = %v, want 0.10", th)
	}
	if th := thresholdFor("BenchmarkFigure8", 0.15); th != 0.15 {
		t.Errorf("figure threshold = %v, want the global 0.15", th)
	}
	// An explicitly tighter global wins over the hot-path bar.
	if th := thresholdFor("BenchmarkEngineCacheCold", 0.05); th != 0.05 {
		t.Errorf("tight global threshold = %v, want 0.05", th)
	}

	dir := t.TempDir()
	baseline := filepath.Join(dir, "base.json")
	const hot = "BenchmarkEngineOracleRecord/workers=1-8 \t 10\t 1000000 ns/op\n"
	in := filepath.Join(dir, "bench.out")
	if err := os.WriteFile(in, []byte(hot), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if code := run([]string{"-write", "-baseline", baseline, in}, &out); code != 0 {
		t.Fatalf("write failed: %s", out.String())
	}
	// +12%: within the old 15% bar, outside the hot-path 10% bar.
	slow := filepath.Join(dir, "slow.out")
	if err := os.WriteFile(slow, []byte(strings.ReplaceAll(hot, "1000000 ns/op", "1120000 ns/op")), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	run([]string{"-baseline", baseline, slow}, &out)
	if !strings.Contains(out.String(), "WARN regression > 10%") {
		t.Fatalf("hot-path +12%% not flagged at the 10%% bar: %s", out.String())
	}
}

// TestAllocRegression checks allocs/op growth past the threshold warns.
func TestAllocRegression(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "base.json")
	const lean = "BenchmarkEngineCacheWarm-8 \t 100\t 1000 ns/op\t 500 B/op\t 100 allocs/op\n"
	in := filepath.Join(dir, "bench.out")
	if err := os.WriteFile(in, []byte(lean), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if code := run([]string{"-write", "-baseline", baseline, in}, &out); code != 0 {
		t.Fatalf("write failed: %s", out.String())
	}
	fat := filepath.Join(dir, "fat.out")
	if err := os.WriteFile(fat, []byte(strings.ReplaceAll(lean, " 100 allocs/op", " 200 allocs/op")), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"-fail", "-baseline", baseline, fat}, &out); code != 1 {
		t.Fatalf("alloc regression exited %d, want 1: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "WARN allocs/op regression") {
		t.Fatalf("alloc regression not flagged: %s", out.String())
	}
}

// TestScalingGate exercises the parallel-speedup floor: pass, fail, and the
// single-CPU skip.
func TestScalingGate(t *testing.T) {
	write := func(t *testing.T, name, content string) string {
		t.Helper()
		p := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	const good = `BenchmarkEngineOracleRecord/workers=1-8 	 10	 8000000 ns/op
BenchmarkEngineOracleRecord/workers=8-8 	 10	 2000000 ns/op
`
	var out strings.Builder
	in := write(t, "good.out", good)
	if code := run([]string{"-scaling", "BenchmarkEngineOracleRecord", "-scaling-min", "2.0", in}, &out); code != 0 {
		t.Fatalf("4x speedup failed the 2x floor (%d): %s", code, out.String())
	}

	const flat = `BenchmarkEngineOracleRecord/workers=1-8 	 10	 8000000 ns/op
BenchmarkEngineOracleRecord/workers=8-8 	 10	 7900000 ns/op
`
	out.Reset()
	in = write(t, "flat.out", flat)
	if code := run([]string{"-scaling", "BenchmarkEngineOracleRecord", "-scaling-min", "2.0", in}, &out); code != 1 {
		t.Fatalf("flat scaling exited %d, want 1: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL scaling regression") {
		t.Fatalf("scaling failure not reported: %s", out.String())
	}

	// Single-CPU run (no/-1 suffix): the gate must skip, not fail.
	const oneCPU = `BenchmarkEngineOracleRecord/workers=1 	 10	 8000000 ns/op
BenchmarkEngineOracleRecord/workers=8 	 10	 8000000 ns/op
`
	out.Reset()
	in = write(t, "one.out", oneCPU)
	if code := run([]string{"-scaling", "BenchmarkEngineOracleRecord", "-scaling-min", "2.0", in}, &out); code != 0 {
		t.Fatalf("single-CPU gate exited %d, want skip/0: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "skipped") {
		t.Fatalf("single-CPU gate did not report skip: %s", out.String())
	}
}
