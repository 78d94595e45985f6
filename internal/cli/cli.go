// Package cli implements the sparseadapt command: it lists and runs the
// paper's experiments, generates training datasets and trains and saves
// predictive models, runs individual workloads under SparseAdapt control,
// records a workload's upper bounds, prints the dataset inventory and
// checks reproduced results against recorded references. The cmd/ binaries
// are thin wrappers so everything here is testable in-process.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"sparseadapt/internal/config"
	"sparseadapt/internal/core"
	"sparseadapt/internal/experiments"
	"sparseadapt/internal/fault"
	"sparseadapt/internal/flagcheck"
	"sparseadapt/internal/host"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/obs"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

// Main dispatches the sparseadapt subcommands, writing to stdout. It
// returns a process exit code.
func Main(args []string, stdout io.Writer) int {
	return MainContext(context.Background(), args, stdout)
}

// MainContext is Main under a cancelable context: the simulation
// subcommands check ctx at their epoch/task boundaries, so canceling it
// (the binary wires it to SIGINT/SIGTERM via sigctx) stops the run
// promptly while still flushing any -metrics/-trace/-manifest sinks.
func MainContext(ctx context.Context, args []string, stdout io.Writer) int {
	if len(args) < 1 {
		usage(stdout)
		return 2
	}
	var err error
	switch args[0] {
	case "list":
		err = cmdList(stdout)
	case "datasets":
		err = cmdDatasets(stdout)
	case "exp":
		err = cmdExp(ctx, stdout, args[1:])
	case "train":
		err = cmdTrain(ctx, stdout, args[1:])
	case "traingen":
		err = cmdTraingen(ctx, stdout, args[1:])
	case "run":
		err = cmdRun(ctx, stdout, args[1:])
	case "oracle":
		err = cmdOracle(ctx, stdout, args[1:])
	case "submit":
		err = cmdSubmit(ctx, stdout, args[1:])
	case "check":
		err = cmdCheck(stdout, args[1:])
	case "verify":
		err = cmdVerify(stdout, args[1:])
	case "-h", "--help", "help":
		usage(stdout)
	case "-version", "--version", "version":
		fmt.Fprintln(stdout, obs.Version("sparseadapt"))
	default:
		fmt.Fprintf(stdout, "unknown command %q\n", args[0])
		usage(stdout)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stdout, "error:", err)
		var fe flagError
		if errors.As(err, &fe) {
			return 2
		}
		return 1
	}
	return 0
}

// flagError marks a flag-range violation so MainContext exits with the
// usage code (2, all violations joined), matching sparseadaptd's flag
// contract (see internal/flagcheck).
type flagError struct{ error }

// checkErr returns the violations check gathered as a flagError, or nil.
func checkErr(check *flagcheck.Check) error {
	if err := check.Err(); err != nil {
		return flagError{err}
	}
	return nil
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `sparseadapt — runtime control for sparse linear algebra (MICRO'21 reproduction)

commands:
  list                 list reproducible experiments (paper figures/tables)
  datasets             print the evaluation matrix suite (Table 5)
  exp <id>|all [flags] run one experiment (or all) and print its report
  train [flags]        generate training data and fit the predictive model
  traingen [flags]     generate the training dataset only (JSON/CSV)
  run [flags]          run one workload under SparseAdapt vs the baselines
                       (-faults injects failures, -checkpoint/-resume cover
                       crash recovery; see README)
  oracle [flags]       record one workload under sampled configurations and
                       print its upper bounds (Sections 6.2 and 6.4)
  check [flags]        re-run the suite at test scale and diff against the
                       recorded reference shapes (artifact rep_check)
  verify [flags]       run the verification subsystem: golden-trace corpus,
                       differential kernel checks and metamorphic invariants
                       (see docs/TESTING.md)
  submit [flags]       submit a job to a sparseadaptd server and stream its
                       progress (see docs/SERVER.md)
  version              print build identity (also -version on every binary)`)
}

func cmdList(w io.Writer) error {
	for _, id := range experiments.IDs() {
		e, err := experiments.Get(id)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s %s\n", e.ID, e.Title)
	}
	return nil
}

func cmdDatasets(w io.Writer) error {
	fmt.Fprintf(w, "%-4s %-24s %-22s %8s %8s  %s\n", "ID", "name", "domain", "dim", "nnz", "structure")
	for _, e := range matrix.Dataset {
		fmt.Fprintf(w, "%-4s %-24s %-22s %8d %8d  %s\n", e.ID, e.Name, e.Domain, e.Dim, e.NNZ, e.Class)
	}
	return nil
}

func cmdExp(ctx context.Context, w io.Writer, args []string) error {
	fs := flag.NewFlagSet("exp", flag.ExitOnError)
	scaleName := fs.String("scale", "small", "experiment scale: test|small|paper")
	seed := fs.Int64("seed", 42, "deterministic seed")
	csvDir := fs.String("csv", "", "directory for raw CSV output (artifact-style rep_data/)")
	svgDir := fs.String("svg", "", "directory for SVG figures")
	ef := addEngineFlags(fs)
	of := addObsFlags(fs)
	// Accept the experiment ID before or after the flags.
	id := ""
	if len(args) > 0 && len(args[0]) > 0 && args[0][0] != '-' {
		id, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if id == "" && fs.NArg() == 1 {
		id = fs.Arg(0)
	}
	if id == "" {
		return fmt.Errorf("usage: sparseadapt exp <id> [-scale ...]")
	}
	var check flagcheck.Check
	ef.check(&check)
	if err := checkErr(&check); err != nil {
		return err
	}
	sc, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		return err
	}
	sc.Seed = *seed
	if err := of.start("sparseadapt exp", fs, args, w); err != nil {
		return err
	}
	of.annotate(sc.Seed, *scaleName)
	defer of.finish(w) //nolint:errcheck // interrupt path; success path checks
	if sc.Eng, err = ef.build(w, of); err != nil {
		return err
	}
	if id == "all" {
		reps, err := experiments.RunAllContext(ctx, sc, *csvDir)
		for _, rep := range reps {
			fmt.Fprint(w, rep.String())
			fmt.Fprintln(w)
		}
		ef.report(w, sc.Eng)
		if ferr := of.finish(w); err == nil {
			err = ferr
		}
		return err
	}
	e, err := experiments.Get(id)
	if err != nil {
		return err
	}
	rep, err := e.Run(sc)
	if err != nil {
		return err
	}
	fmt.Fprint(w, rep.String())
	ef.report(w, sc.Eng)
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		out := filepath.Join(*csvDir, id+".csv")
		if err := rep.WriteCSV(out); err != nil {
			return err
		}
		fmt.Fprintln(w, "wrote", out)
	}
	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			return err
		}
		out := filepath.Join(*svgDir, id+".svg")
		if err := rep.WriteSVG(out); err != nil {
			return err
		}
		fmt.Fprintln(w, "wrote", out)
	}
	return of.finish(w)
}

func cmdRun(ctx context.Context, w io.Writer, args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	kernel := fs.String("kernel", "spmspv", "workload: spmspm|spmspv|bfs|sssp")
	matID := fs.String("matrix", "R12", "dataset matrix ID (see `sparseadapt datasets`)")
	pf := addPinFlags(fs, "spmspm/spmspv; default: natural")
	modeName := fs.String("mode", "ee", "optimization mode: ee|pp")
	scaleName := fs.String("scale", "small", "experiment scale: test|small|paper")
	modelPath := fs.String("model", "", "model JSON (trained on the fly when empty)")
	policy := fs.String("policy", "", "override policy: conservative|aggressive|hybrid")
	tolerance := fs.Float64("tolerance", core.DefaultTolerance, "hybrid tolerance")
	faultSpec := fs.String("faults", "", "fault-injection spec, e.g. nan=0.1,stuck=0.05,rc-drop=0.2,seed=7 (runs the resilient controller)")
	ckPath := fs.String("checkpoint", "", "controller checkpoint file (written during the run; implies the resilient controller)")
	resumeCk := fs.Bool("resume", false, "resume an interrupted run from -checkpoint")
	traceCounters := fs.Bool("trace-counters", false, "include the full Table 2 telemetry vector in every trace epoch record")
	ef := addEngineFlags(fs)
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resumeCk && *ckPath == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	var check flagcheck.Check
	pf.check(&check)
	if *policy != "" {
		check.OneOf("policy", *policy, "conservative", "aggressive", "hybrid")
	}
	ef.check(&check)
	if err := checkErr(&check); err != nil {
		return err
	}
	sc, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		return err
	}
	if err := of.start("sparseadapt run", fs, args, w); err != nil {
		return err
	}
	of.annotate(sc.Seed, *scaleName)
	defer of.finish(w) //nolint:errcheck // interrupt path; success path checks
	// The engine accelerates the on-the-fly model training below; the
	// controlled run itself is a single sequential simulation.
	if sc.Eng, err = ef.build(w, of); err != nil {
		return err
	}
	mode, err := power.ModeByName(*modeName)
	if err != nil {
		return err
	}
	entry, err := matrix.Entry(*matID)
	if err != nil {
		return err
	}
	am := entry.Generate(sc.Matrix, sc.Seed)
	// A pinned run needs the kernel's variants; an unpinned one builds the
	// natural variant directly, as a daemon job does.
	var wl kernels.Workload
	if pf.pinned() {
		src, err := host.NewSource(*kernel, *matID, am, sc.Seed, sc.Chip)
		if err != nil {
			return err
		}
		if wl, err = src.Variant(pf.pin(config.Baseline)); err != nil {
			return err
		}
	} else {
		off, err := host.NewOffload(*kernel, am, sc.Seed, sc.Chip)
		if err != nil {
			return err
		}
		wl = off.Workload
	}

	modelKernel := host.ModelKernel(*kernel)
	var ens *core.Ensemble
	if *modelPath != "" {
		ens, err = core.LoadEnsemble(*modelPath)
	} else {
		ens, err = experiments.Model(sc, modelKernel, config.CacheMode, mode)
	}
	if err != nil {
		return err
	}
	opts := experiments.ControlOptions(modelKernel, *policy, *tolerance, sc.Epoch)

	base := core.RunStatic(sc.Chip, sc.BW, pf.pin(config.Baseline), wl, sc.Epoch)
	best := core.RunStatic(sc.Chip, sc.BW, pf.pin(config.BestAvgCache), wl, sc.Epoch)
	max := core.RunStatic(sc.Chip, sc.BW, pf.pin(config.MaxCfg), wl, sc.Epoch)
	m := sim.New(sc.Chip, sc.BW, pf.pin(config.Baseline))
	m.Instrument(of.reg)
	observer := of.observer(*traceCounters)

	var dyn core.RunResult
	resilient := *faultSpec != "" || *ckPath != ""
	if resilient {
		spec, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			return err
		}
		ropts := core.DefaultResilientOptions()
		ropts.Options = opts
		ropts.Fallback = config.BestAvgCache
		ropts.CheckpointPath = *ckPath
		rc := core.NewResilientController(ens, ropts).Observe(observer)
		if !spec.IsZero() {
			rc.Inject = fault.New(spec)
		}
		if *resumeCk {
			ck, err := core.LoadCheckpoint(*ckPath)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "resuming from %s at epoch %d\n", *ckPath, ck.Epoch)
			dyn, err = rc.Resume(ctx, m, wl, ck)
			if err != nil {
				return err
			}
		} else if dyn, err = rc.Run(ctx, m, wl); err != nil {
			return err
		}
	} else {
		ctl := core.NewController(ens, opts).Observe(observer)
		if dyn, err = core.Drive(ctx, m, kernels.Fixed(wl), ctl.Opts.EpochScale, ctl); err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "workload %s on %s (%d epochs, %d reconfigs, mode %s, policy %s)\n",
		wl.Name, *matID, len(dyn.Epochs), dyn.Reconfig, mode, opts.Policy)
	fmt.Fprintf(w, "%-12s %12s %12s %14s %14s\n", "scheme", "time(ms)", "energy(mJ)", "GFLOPS", "GFLOPS/W")
	for _, row := range []struct {
		name string
		m    power.Metrics
	}{
		{"baseline", base.Total}, {"best-avg", best.Total}, {"max-cfg", max.Total}, {"sparseadapt", dyn.Total},
	} {
		fmt.Fprintf(w, "%-12s %12.3f %12.3f %14.4f %14.4f\n", row.name,
			row.m.TimeSec*1e3, row.m.EnergyJ*1e3, row.m.GFLOPS(), row.m.GFLOPSPerW())
	}
	fmt.Fprintf(w, "gains over baseline: %.2fx GFLOPS, %.2fx GFLOPS/W\n",
		dyn.Total.GFLOPS()/base.Total.GFLOPS(), dyn.Total.GFLOPSPerW()/base.Total.GFLOPSPerW())
	if resilient {
		fmt.Fprintf(w, "resilience: %s\n", dyn.Resilience)
		edp := func(m power.Metrics) float64 { return m.TimeSec * m.EnergyJ }
		if b := edp(best.Total); b > 0 {
			fmt.Fprintf(w, "EDP vs best static: %.3fx\n", edp(dyn.Total)/b)
		}
	}
	return of.finish(w)
}
