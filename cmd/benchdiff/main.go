// Command benchdiff compares `go test -bench` output against a committed
// baseline (BENCH_BASELINE.json) and flags regressions, a dependency-free
// stand-in for benchstat sized for this repository's CI. With -write it
// (re)generates the baseline instead.
//
// Usage:
//
//	go test -run=NONE -bench=. -benchmem ./... | tee bench.out
//	go run ./cmd/benchdiff -baseline BENCH_BASELINE.json bench.out
//	go run ./cmd/benchdiff -write -baseline BENCH_BASELINE.json bench.out
//
// Comparison is warn-only by default (exit 0) because single-run CI
// benchmark numbers are noisy; -fail turns time regressions into a non-zero
// exit for local use. Warning lines are prefixed with the benchmark's
// subsystem group ([engine], [sim], [obs], [tenant], [ml], [matrix],
// [figure]) so CI logs are greppable per subsystem.
//
// Allocation counts (allocs/op, requires -benchmem in the run) are compared
// exactly like times but against a tighter bar: they are deterministic, so
// any growth past the threshold is a real regression, not noise.
//
// The -scaling gate checks parallel speedup instead of absolute time: with
// -scaling BenchmarkEngineOracleRecord -scaling-min 2.0 it fails (exit 1)
// unless <name>/workers=8 is at least 2× faster than <name>/workers=1. The
// gate skips itself when the run's GOMAXPROCS (the -N benchmark-name
// suffix) is below 2, since a single-CPU runner cannot exhibit speedup.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the committed benchmark reference: ns/op (and allocs/op when
// the run was taken with -benchmem) per benchmark, keyed by name with the
// GOMAXPROCS suffix stripped so the file is portable across machines with
// different core counts.
type Baseline struct {
	Note       string             `json:"note"`
	Benchmarks map[string]float64 `json:"benchmarks"`
	Allocs     map[string]float64 `json:"allocs,omitempty"`
}

// benchLine matches standard testing output:
// BenchmarkName-8   1234   5678 ns/op   90 B/op   1 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+\d+\s+([0-9.e+]+) ns/op(?:\s+([0-9.e+]+) B/op\s+([0-9.e+]+) allocs/op)?`)

// hotPathThreshold is the tighter warn bar for the engine hot-path
// benchmarks this repository actively defends (ISSUE 8): the oracle-record
// scaling suite and the engine cache paths.
const hotPathThreshold = 0.10

var hotPathPrefixes = []string{
	"BenchmarkEngineOracleRecord/",
	"BenchmarkEngineCache",
}

// group names the subsystem a benchmark exercises, for greppable CI logs.
func group(name string) string {
	switch {
	case strings.HasPrefix(name, "BenchmarkEngine"):
		return "engine"
	case strings.HasPrefix(name, "BenchmarkSim"), strings.HasPrefix(name, "BenchmarkBank"),
		strings.HasPrefix(name, "BenchmarkMachine"), strings.HasPrefix(name, "BenchmarkTrace"):
		return "sim"
	case strings.HasPrefix(name, "BenchmarkCounter"), strings.HasPrefix(name, "BenchmarkHistogram"),
		strings.HasPrefix(name, "BenchmarkGolden"), strings.HasPrefix(name, "BenchmarkScenario"):
		return "obs"
	case strings.HasPrefix(name, "BenchmarkMux"), strings.HasPrefix(name, "BenchmarkTenant"):
		return "tenant"
	case strings.HasPrefix(name, "BenchmarkTrain"):
		return "ml"
	case strings.HasPrefix(name, "BenchmarkParseMatrixMarket"), strings.HasPrefix(name, "BenchmarkCOO"):
		return "matrix"
	default:
		return "figure"
	}
}

// thresholdFor returns the warn threshold for one benchmark: the hot-path
// bar when it is tighter than the global flag, the flag otherwise.
func thresholdFor(name string, global float64) float64 {
	for _, p := range hotPathPrefixes {
		if strings.HasPrefix(name, p) {
			if hotPathThreshold < global {
				return hotPathThreshold
			}
			break
		}
	}
	return global
}

// parsed is one run's extracted measurements.
type parsed struct {
	ns     map[string]float64
	allocs map[string]float64
	procs  int // max GOMAXPROCS suffix seen (1 when absent)
}

// parseBench extracts measurements from -bench output. Repeated runs of the
// same benchmark keep the minimum ns/op (the least-noise sample) and its
// allocs/op alongside.
func parseBench(r io.Reader) (parsed, error) {
	p := parsed{ns: map[string]float64{}, allocs: map[string]float64{}, procs: 1}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		if m[2] != "" {
			if n, err := strconv.Atoi(m[2]); err == nil && n > p.procs {
				p.procs = n
			}
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return parsed{}, fmt.Errorf("benchdiff: bad ns/op in %q: %w", sc.Text(), err)
		}
		if prev, ok := p.ns[m[1]]; ok && ns >= prev {
			continue
		}
		p.ns[m[1]] = ns
		if m[5] != "" {
			if a, err := strconv.ParseFloat(m[5], 64); err == nil {
				p.allocs[m[1]] = a
			}
		}
	}
	return p, sc.Err()
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(w)
	baselinePath := fs.String("baseline", "BENCH_BASELINE.json", "baseline file")
	write := fs.Bool("write", false, "write the baseline from the input instead of comparing")
	threshold := fs.Float64("threshold", 0.15, "relative ns/op regression that triggers a warning (hot-path benchmarks use 10% when tighter)")
	failOnRegress := fs.Bool("fail", false, "exit non-zero on regression (default: warn only)")
	scaling := fs.String("scaling", "", "benchmark family for the parallel-scaling gate (checks <name>/workers=8 vs <name>/workers=1)")
	scalingMin := fs.Float64("scaling-min", 2.0, "minimum workers=8 over workers=1 speedup the -scaling gate requires")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	in := io.Reader(os.Stdin)
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(w, "benchdiff:", err)
			return 2
		}
		defer f.Close()
		in = f
	}
	got, err := parseBench(in)
	if err != nil {
		fmt.Fprintln(w, "benchdiff:", err)
		return 2
	}
	if len(got.ns) == 0 {
		fmt.Fprintln(w, "benchdiff: no benchmark lines in input")
		return 2
	}

	if *scaling != "" {
		return runScalingGate(w, got, *scaling, *scalingMin)
	}

	if *write {
		b := Baseline{
			Note:       "committed benchmark reference; regenerate with: go test -run=NONE -bench=. -benchmem ./... | go run ./cmd/benchdiff -write",
			Benchmarks: got.ns,
		}
		if len(got.allocs) > 0 {
			b.Allocs = got.allocs
		}
		data, err := json.MarshalIndent(b, "", " ")
		if err != nil {
			fmt.Fprintln(w, "benchdiff:", err)
			return 2
		}
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(w, "benchdiff:", err)
			return 2
		}
		fmt.Fprintf(w, "benchdiff: wrote %d benchmarks to %s\n", len(got.ns), *baselinePath)
		return 0
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(w, "benchdiff:", err)
		return 2
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(w, "benchdiff: %s: %v\n", *baselinePath, err)
		return 2
	}

	names := make([]string, 0, len(base.Benchmarks))
	for n := range base.Benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)
	regressions := 0
	fmt.Fprintf(w, "%-44s %14s %14s %8s\n", "benchmark", "baseline ns/op", "current ns/op", "delta")
	for _, n := range names {
		b := base.Benchmarks[n]
		g, ok := got.ns[n]
		if !ok {
			fmt.Fprintf(w, "%-44s %14.1f %14s %8s  [%s] MISSING from current run\n", n, b, "-", "-", group(n))
			regressions++
			continue
		}
		delta := (g - b) / b
		th := thresholdFor(n, *threshold)
		mark := ""
		if delta > th {
			mark = fmt.Sprintf("  [%s] WARN regression > %.0f%%", group(n), th*100)
			regressions++
		}
		fmt.Fprintf(w, "%-44s %14.1f %14.1f %+7.1f%%%s\n", n, b, g, delta*100, mark)
	}
	for n := range got.ns {
		if _, ok := base.Benchmarks[n]; !ok {
			fmt.Fprintf(w, "%-44s %14s %14.1f %8s  new (not in baseline; re-bless with -write)\n", n, "-", got.ns[n], "-")
		}
	}

	// Allocation regressions: allocs/op is deterministic per benchmark, so a
	// growth past the threshold is a real change, not noise. Compared only
	// for benchmarks present with -benchmem on both sides.
	allocNames := make([]string, 0, len(base.Allocs))
	for n := range base.Allocs {
		allocNames = append(allocNames, n)
	}
	sort.Strings(allocNames)
	for _, n := range allocNames {
		b, g := base.Allocs[n], got.allocs[n]
		if _, ok := got.allocs[n]; !ok || b <= 0 {
			continue
		}
		if delta := (g - b) / b; delta > thresholdFor(n, *threshold) && g-b >= 8 {
			fmt.Fprintf(w, "%-44s %14.0f %14.0f %+7.1f%%  [%s] WARN allocs/op regression\n",
				n+" (allocs)", b, g, delta*100, group(n))
			regressions++
		}
	}

	if regressions > 0 {
		fmt.Fprintf(w, "benchdiff: %d benchmark(s) regressed or went missing\n", regressions)
		if *failOnRegress {
			return 1
		}
	}
	return 0
}

// runScalingGate enforces the parallel-speedup floor: family/workers=8 must
// be at least min× faster than family/workers=1. Unlike the warn-only time
// comparison this gate always fails hard — speedup is a ratio within one
// run, so machine-to-machine noise cancels out. It skips (exit 0) on
// single-CPU runs, which cannot exhibit parallel speedup.
func runScalingGate(w io.Writer, got parsed, family string, min float64) int {
	if got.procs < 2 {
		fmt.Fprintf(w, "benchdiff: scaling gate skipped (GOMAXPROCS=%d; need >= 2)\n", got.procs)
		return 0
	}
	one, ok1 := got.ns[family+"/workers=1"]
	eight, ok8 := got.ns[family+"/workers=8"]
	if !ok1 || !ok8 {
		fmt.Fprintf(w, "benchdiff: scaling gate: %s/workers={1,8} not both present in input\n", family)
		return 2
	}
	speedup := one / eight
	fmt.Fprintf(w, "benchdiff: [%s] %s workers=8 speedup: %.2fx (floor %.2fx)\n", group(family+"/"), family, speedup, min)
	if speedup < min {
		fmt.Fprintf(w, "benchdiff: [%s] FAIL scaling regression: %.2fx < %.2fx\n", group(family+"/"), speedup, min)
		return 1
	}
	return 0
}
