// Command bench is the repository's benchmark. It runs four workloads —
// oracle-grid, paper-suite, daemon-fresh and daemon-cached — each in a
// fresh child process with exactly one seed, and drives the program only
// from outside: through the public functions of its internal packages,
// through the sparseadapt CLI binary and through the sparseadaptd daemon
// over HTTP. Every run checks the program's outputs and prints each metric
// with its unit, sample count and the machine stamp; the last line of
// standard output is one JSON object summarizing the run.
//
// Run it from the repository root through the build script, which builds
// the program binaries and this command into .bench_build/bin:
//
//	sh bench/run.sh [-workload all|name,...] [-seed N] [-trace 0|1] [-out FILE]
//	sh bench/run.sh -compare A.jsonl B.jsonl
//
// The run length is run_seconds of BENCHMARK.json. See bench/README.md
// for the workloads, the metric catalog and the paired-run protocol.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything building and running the benchmark leaves
// behind, relative to the repository root.
const buildDir = ".bench_build"

// childTimeout bounds one workload's child process, so a run ends within
// three minutes even when a child hangs.
const childTimeout = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the settings one workload run receives.
type options struct {
	seed     int64
	seconds  int
	traced   bool
	traceDir string
	binDir   string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sel := fs.String("workload", "all", "workloads to run: all, or a comma-separated list of names")
	seed := fs.Int64("seed", 1, "input seed (2 is the held-out seed)")
	seconds := fs.Int("seconds", 0, "accepted for callers that pass the run length; must equal run_seconds of BENCHMARK.json")
	trace := fs.Int("trace", 0, "1 re-runs each workload with spans and reports the per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(buildDir, "trace"), "where traced runs write their Chrome trace files")
	out := fs.String("out", "", "append this run's results as one JSON line to this file")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare A.jsonl B.jsonl")
	child := fs.String("child", "", "run the named workload in this process (the parent passes this to its children)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	cat, err := loadCatalog(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A.jsonl B.jsonl")
			return 2
		}
		if err := compareFiles(stdout, cat, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	// The run length is part of the benchmark's definition: the daemon
	// workloads' job counts, and with them the pinned digests, follow it.
	if *seconds != 0 && *seconds != cat.RunSeconds {
		fmt.Fprintf(stderr, "bench: -seconds %d: the run length is run_seconds of BENCHMARK.json (%d)\n", *seconds, cat.RunSeconds)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	opt := options{seed: *seed, seconds: cat.RunSeconds, traced: *trace == 1, traceDir: *traceDir,
		binDir: filepath.Dir(self)}

	if *child != "" {
		return runChild(*child, opt, stdout, stderr)
	}

	names, err := selectWorkloads(*sel)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	st := newStamp(root, opt.seed)
	var results []*result
	for _, name := range names {
		res, err := spawnChild(self, name, opt, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		res.Stamp = st
		if missing := cat.missing(res); len(missing) > 0 {
			res.problem("metrics not measured: %s", strings.Join(missing, ", "))
		}
		printResult(stdout, cat, res)
		results = append(results, res)
	}
	if *out != "" {
		if err := appendRun(*out, st, results); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	summary := summarize(cat, results)
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !summary.Correct {
		return 1
	}
	return 0
}

// workloadNames lists the workloads in the order "all" runs them.
var workloadNames = []string{"oracle-grid", "paper-suite", "daemon-fresh", "daemon-cached"}

func selectWorkloads(sel string) ([]string, error) {
	if sel == "" || sel == "all" {
		return workloadNames, nil
	}
	var out []string
	for _, name := range strings.Split(sel, ",") {
		if workloadFunc(name) == nil {
			return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
		}
		out = append(out, name)
	}
	return out, nil
}

func workloadFunc(name string) func(context.Context, options, *result) error {
	switch name {
	case "oracle-grid":
		return runOracleGrid
	case "paper-suite":
		return runPaperSuite
	case "daemon-fresh":
		return runDaemonFresh
	case "daemon-cached":
		return runDaemonCached
	}
	return nil
}

// childArgs is the argument list of the child process running one
// workload. It carries exactly one seed: the program keeps process-wide
// model caches that ignore the seed, so a process must never see two.
func childArgs(name string, opt options) []string {
	return []string{
		"-child", name,
		"-seed", strconv.FormatInt(opt.seed, 10),
		"-trace", map[bool]string{false: "0", true: "1"}[opt.traced],
		"-trace-dir", opt.traceDir,
	}
}

// spawnChild runs one workload in a fresh child process and returns the
// result it printed as its last line.
func spawnChild(self, name string, opt options, stderr io.Writer) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, childArgs(name, opt)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	runErr := cmd.Run()
	line, err := readLastLine(&out)
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("child failed: %w", runErr)
		}
		return nil, fmt.Errorf("child printed no result: %w", err)
	}
	if runErr != nil {
		res.problem("child exited: %v", runErr)
	}
	return &res, nil
}

// runChild is the child side: run one workload and print its result as
// the last line of stdout.
func runChild(name string, opt options, stdout, stderr io.Writer) int {
	fn := workloadFunc(name)
	if fn == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	res := &result{Workload: name, Seconds: opt.seconds, Traced: opt.traced, Metrics: metrics{}}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout-5*time.Second)
	defer cancel()
	if err := fn(ctx, opt, res); err != nil {
		res.problem("%v", err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	return 0
}

// traceFile is where a traced run of workload writes its Chrome trace.
func traceFile(opt options, workload string) string {
	return filepath.Join(opt.traceDir, fmt.Sprintf("%s-seed%d.json", workload, opt.seed))
}
