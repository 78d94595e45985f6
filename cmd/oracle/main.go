// Command oracle runs the upper-bound study for one workload: it records
// the workload under a random configuration sample and prints Ideal
// Static, Ideal Greedy, Oracle, ProfileAdapt (naïve and ideal) and the
// Baseline, in both optimization modes (Sections 6.2 and 6.4).
//
// Usage:
//
//	oracle -kernel spmspm -matrix R04 -samples 32 -scale small
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"sparseadapt/internal/config"
	"sparseadapt/internal/engine"
	"sparseadapt/internal/experiments"
	"sparseadapt/internal/flagcheck"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/obs"
	"sparseadapt/internal/oracle"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

func main() {
	kernel := flag.String("kernel", "spmspm", "kernel: spmspm|spmspv")
	matID := flag.String("matrix", "R04", "dataset matrix ID")
	samples := flag.Int("samples", 32, "number of sampled configurations (paper: 256)")
	dataflow := flag.String("dataflow", "", "pin the SpMSpM dataflow axis of every sampled config: outer|inner|row (empty = roam)")
	format := flag.String("format", "", "pin the A-operand storage format of every sampled config: csr|csc|coo (empty = roam)")
	scaleName := flag.String("scale", "small", "scale: test|small|paper")
	seed := flag.Int64("seed", 42, "deterministic seed")
	workers := flag.Int("workers", 0, "parallel simulation workers (0 = all CPUs, 1 = serial)")
	cacheDir := flag.String("cache", "", "directory for the on-disk simulation result cache")
	progress := flag.Bool("progress", false, "print engine progress and the end-of-run summary")
	metricsPath := flag.String("metrics", "", "write run metrics to this file (.json = JSON snapshot, else Prometheus text)")
	tracePath := flag.String("trace", "", "write the engine task trace to this file (.jsonl = JSONL, else Chrome trace_event JSON)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address while recording")
	manifestPath := flag.String("manifest", "", "write a reproducibility manifest (JSON)")
	version := flag.Bool("version", false, "print build identity and exit")
	flag.Parse()
	if *version {
		fmt.Println(obs.Version("oracle"))
		return
	}
	var check flagcheck.Check
	check.Positive("samples", *samples)
	check.NonNegative("workers", *workers)
	if *dataflow != "" {
		check.OneOf("dataflow", *dataflow, config.DataflowNames()...)
	}
	if *format != "" {
		check.OneOf("format", *format, config.FormatNames()...)
	}
	if err := check.Err(); err != nil {
		fatalUsage(err)
	}

	var reg *obs.Registry
	var trace *obs.TraceRecorder
	if *metricsPath != "" {
		reg = obs.NewRegistry()
	}
	if *tracePath != "" {
		trace = obs.NewTraceRecorder()
	}
	if *pprofAddr != "" {
		srv, err := obs.ServePprof(*pprofAddr)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "pprof: serving on http://%s/debug/pprof/\n", srv.Addr())
	}
	manifest := (*obs.Manifest)(nil)
	if *manifestPath != "" {
		manifest = obs.NewManifest("oracle", os.Args[1:])
	}

	var sc experiments.Scale
	switch *scaleName {
	case "test":
		sc = experiments.TestScale()
	case "small":
		sc = experiments.SmallScale()
	case "paper":
		sc = experiments.PaperScale()
	default:
		fatal(fmt.Errorf("unknown scale %q", *scaleName))
	}
	sc.Seed = *seed

	entry, err := matrix.Entry(*matID)
	if err != nil {
		fatal(err)
	}
	am := entry.Generate(sc.Matrix, sc.Seed)
	a := am.ToCSC()
	var src *kernels.Source
	switch *kernel {
	case "spmspm":
		src = kernels.NewSpMSpMSource(*matID, a, am.ToCSR().Transpose(), sc.Chip.NGPE(), sc.Chip.Tiles)
	case "spmspv":
		x := matrix.RandomVec(rand.New(rand.NewSource(sc.Seed+1)), a.Cols, 0.5)
		src = kernels.NewSpMSpVSource(*matID, a, x, sc.Chip.NGPE(), sc.Chip.Tiles)
	default:
		fatal(fmt.Errorf("unknown kernel %q", *kernel))
	}
	_, eps, err := src.Grid(config.Baseline, sc.Epoch)
	if err != nil {
		fatal(err)
	}

	cache, err := engine.NewCache(4096, *cacheDir)
	if err != nil {
		fatal(err)
	}
	opts := engine.Options{Workers: *workers, Cache: cache, Metrics: reg, Trace: trace}
	if *progress {
		opts.Progress = os.Stderr
	}
	eng := engine.New(opts)

	rng := rand.New(rand.NewSource(sc.Seed + 7))
	cfgs := oracle.SampleConfigs(rng, *samples, config.CacheMode)
	cfgs = pinConfigs(cfgs, *dataflow, *format)
	fmt.Printf("recording %s on %s: %d configs x %d epochs, %d workers\n",
		*kernel, *matID, len(cfgs), len(eps), eng.Workers())
	rec, err := oracle.RecordSourceEngine(context.Background(), eng, sim.SharedRunMemo(), sc.Chip, sc.BW, src, sc.Epoch, cfgs)
	if err != nil {
		fatal(err)
	}
	if *progress {
		fmt.Fprint(os.Stderr, eng.Stats.Report())
	}

	for _, mode := range []power.Mode{power.PowerPerformance, power.EnergyEfficient} {
		fmt.Printf("\n--- mode: %s ---\n", mode)
		stCfg, st := rec.IdealStatic(mode)
		_, gr := rec.IdealGreedy(mode)
		_, or := rec.Oracle(mode)
		paN := rec.ProfileAdapt(mode, true)
		paI := rec.ProfileAdapt(mode, false)
		fmt.Printf("%-18s %12s %12s %12s %14s\n", "scheme", "time(ms)", "energy(mJ)", "GFLOPS", "GFLOPS/W")
		show := func(name string, m power.Metrics) {
			fmt.Printf("%-18s %12.3f %12.3f %12.4f %14.4f\n",
				name, m.TimeSec*1e3, m.EnergyJ*1e3, m.GFLOPS(), m.GFLOPSPerW())
		}
		show("ideal-static", st)
		show("ideal-greedy", gr)
		show("oracle", or)
		show("profileadapt-naive", paN)
		show("profileadapt-ideal", paI)
		fmt.Printf("ideal static config: %v\n", stCfg)
	}

	if reg != nil {
		if err := reg.WriteFile(*metricsPath); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *metricsPath)
	}
	if trace != nil {
		if err := trace.WriteFile(*tracePath); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *tracePath)
	}
	if manifest != nil {
		manifest.Seed = sc.Seed
		manifest.Scale = *scaleName
		if err := manifest.WriteFile(*manifestPath); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *manifestPath)
	}
}

// pinConfigs projects every sampled configuration onto the requested
// dataflow/format axes (empty = leave the axis free) and drops the
// duplicates the projection creates, preserving sample order.
func pinConfigs(cfgs []config.Config, dataflow, format string) []config.Config {
	if dataflow == "" && format == "" {
		return cfgs
	}
	df, fm := -1, -1
	if dataflow != "" {
		df, _ = config.DataflowByName(dataflow) // validated by flagcheck
	}
	if format != "" {
		fm, _ = config.FormatByName(format)
	}
	seen := map[int]bool{}
	out := cfgs[:0]
	for _, c := range cfgs {
		if df >= 0 {
			c[config.Dataflow] = df
		}
		if fm >= 0 {
			c[config.Format] = fm
		}
		if !seen[c.Index()] {
			out = append(out, c)
			seen[c.Index()] = true
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}

// fatalUsage reports flag violations — all of them, joined — and exits
// with the usage code, matching sparseadaptd's flag contract.
func fatalUsage(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(2)
}
