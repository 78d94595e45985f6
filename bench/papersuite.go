package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sparseadapt/internal/engine"
	"sparseadapt/internal/experiments"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sched"
)

// paper-suite runs what a user runs to regenerate every table and figure:
// `sparseadapt exp all -scale small -seed S`, each time in a fresh
// process with the CLI's defaults (all CPUs, in-memory engine cache).
const (
	suiteSetups = 5
	// suiteMinProcs is the fewest timed processes a run makes, so the
	// median is of at least three even when they outlast the run length.
	suiteMinProcs = 3
	// suiteCacheEntries is the CLI's in-memory engine cache size, which the
	// in-process traced suite reproduces.
	suiteCacheEntries = 4096
	suiteProbeJobs    = 4
)

func runPaperSuite(ctx context.Context, opt options, res *result) error {
	// Set-up is the work every suite process starts with: training the four
	// controller models (SpMSpV and SpMSpM, each objective) at the suite's
	// scale and seed, with the calls experiments.Model makes. It runs in
	// this process: timed through the CLI's train command, a 0.2-s process
	// per model moved 10–17% from run to run.
	sc := experiments.SmallScale()
	sc.Seed = opt.seed
	var setups []float64
	for i := 0; i < suiteSetups; i++ {
		start := time.Now()
		ms := &models{}
		for _, kernel := range []string{"spmspv", "spmspm"} {
			for _, mode := range []power.Mode{power.EnergyEfficient, power.PowerPerformance} {
				if _, err := ms.get(ctx, nil, 0, sc, kernel, mode); err != nil {
					return err
				}
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res.Metrics.set("setup_s", median(setups), "s", len(setups), "median in-process training of the suite's four models")

	cli := filepath.Join(opt.binDir, "sparseadapt")
	seconds := float64(opt.seconds)
	if opt.traced {
		seconds /= 2
	}
	args := []string{"exp", "all", "-scale", "small", "-seed", strconv.FormatInt(opt.seed, 10)}
	var wallsMs, rss []float64
	var outs [][]byte
	start := time.Now()
	for len(wallsMs) < suiteMinProcs || time.Since(start).Seconds()+median(wallsMs)/1000 <= seconds {
		t0 := time.Now()
		out, mb, err := runCLI(ctx, cli, args...)
		res.Attempted++
		if err != nil {
			res.Failed++
			res.problem("sparseadapt %s: %v", strings.Join(args, " "), err)
			break
		}
		wallsMs = append(wallsMs, msOf(time.Since(t0)))
		rss = append(rss, mb)
		outs = append(outs, out)
	}
	if len(wallsMs) == 0 {
		return nil
	}
	res.Metrics.set("wall_s", median(wallsMs)/1000, "s", len(wallsMs), "median process")
	latencySummary(res.Metrics, "p50_ms", "tail_ms", wallsMs, 99)
	// The median process, not the largest: one process's peak depends on
	// where its garbage collections fell, and the largest of a few moved
	// 11% from run to run.
	res.Metrics.set("peak_rss_mb", median(rss), "MB", len(rss), "median CLI process")

	// Correctness: every process prints the same report, and it matches
	// the pinned digest for this seed.
	dg := newDigest()
	dg.bytes(outs[0])
	res.Digest = dg.String()
	for i, out := range outs {
		if !bytes.Equal(out, outs[0]) {
			res.problem("process %d printed a different report than process 0", i)
		}
	}
	checkPinned(res, opt.seed, 0)
	if !opt.traced {
		return nil
	}

	// Traced suite: the same engine.Map over the registered experiments
	// the CLI runs, in this process, one span per experiment. Its report
	// must equal the CLI's.
	tr := newTracer()
	report, wall, eng, err := tracedSuite(ctx, opt.seed, tr)
	res.Attempted++
	if err != nil {
		res.Failed++
		return err
	}
	if !bytes.Equal(report, outs[0]) {
		res.problem("in-process suite report differs from the CLI's")
	}
	res.Metrics.set("bench.trace_overhead", msOf(wall)/median(wallsMs)-1, "ratio", 1, "traced in-process suite ÷ CLI process − 1")
	spans := tr.snapshot()
	var busy time.Duration
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "experiments.") {
			m := s.End - s.Start
			busy += m
			res.Metrics.set(s.Name+"_s", m.Seconds(), "s", 1, "")
		}
	}
	sn := eng.Stats.Snapshot()
	res.Metrics.set("engine.busy_ratio", busy.Seconds()/(wall.Seconds()*float64(eng.Workers())), "fraction", len(experiments.IDs()),
		"experiment time ÷ (suite wall × workers); nested sweeps add their own workers")
	res.Metrics.set("engine.task_ms.mean", msOf(sn.CPU)/float64(sn.Done), "ms", int(sn.Done), "all engine tasks, nested ones included")
	res.Metrics.set("engine.cache_hit_ratio", sn.HitRate(), "fraction", int(sn.CacheHits+sn.CacheMisses), "")
	if err := runProbe(ctx, tr, probeForSuite(opt.seed)); err != nil {
		return err
	}
	spans = tr.snapshot()
	addTraceLayers(res.Metrics, spans)
	return writeChrome(traceFile(opt, res.Workload), spans)
}

// tracedSuite runs every registered experiment as the CLI's `exp all`
// does and returns the report text the CLI would print.
func tracedSuite(ctx context.Context, seed int64, tr *tracer) ([]byte, time.Duration, *engine.Engine, error) {
	sc := experiments.SmallScale()
	sc.Seed = seed
	cache, err := engine.NewCache(suiteCacheEntries, "")
	if err != nil {
		return nil, 0, nil, err
	}
	sc.Eng = engine.New(engine.Options{Workers: runtime.NumCPU(), Cache: cache})
	ids := experiments.IDs()
	tasks := make([]engine.Task[*experiments.Report], len(ids))
	for i, id := range ids {
		id := id
		tasks[i] = engine.Task[*experiments.Report]{Compute: func(context.Context) (*experiments.Report, error) {
			e, err := experiments.Get(id)
			if err != nil {
				return nil, err
			}
			var rep *experiments.Report
			_, err = tr.timed(0, "experiments."+id, id, func(int) error {
				rep, err = e.Run(sc)
				return err
			})
			return rep, err
		}}
	}
	start := time.Now()
	reps, err := engine.Map(ctx, sc.Eng, tasks)
	wall := time.Since(start)
	if err != nil {
		return nil, 0, nil, err
	}
	var b bytes.Buffer
	for _, rep := range reps {
		fmt.Fprint(&b, rep.String())
		fmt.Fprintln(&b)
	}
	return b.Bytes(), wall, sc.Eng, nil
}

// probeForSuite samples dataset entries as the suite generates them at
// its scale and seed, alternating SpMSpV and SpMSpM.
func probeForSuite(seed int64) []probeJob {
	rng := seeded(seed, "paper-suite/probe")
	ids := matrix.IDs()
	sc := experiments.SmallScale()
	var jobs []probeJob
	for i := 0; i < suiteProbeJobs; i++ {
		id := ids[rng.Intn(len(ids))]
		entry, err := matrix.Entry(id)
		if err != nil {
			panic(err) // ids come from the dataset itself
		}
		kernel := []string{"spmspv", "spmspm"}[i%2]
		jobs = append(jobs, probeJob{id: "probe/" + kernel + "/" + id, req: sched.JobRequest{
			Mode: sched.ModeAdaptive, Kernel: kernel, Scale: "small", Seed: seed,
			MatrixMarket: marketText(entry.Generate(sc.Matrix, seed)),
		}})
	}
	return jobs
}

// runCLI runs the sparseadapt binary and returns its standard output and
// peak resident set in MB.
func runCLI(ctx context.Context, bin string, args ...string) ([]byte, float64, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, err
	}
	return out, rssMB(cmd.ProcessState.SysUsage()), nil
}
