package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"

	"sparseadapt/internal/config"
	"sparseadapt/internal/experiments"
	"sparseadapt/internal/flagcheck"
	"sparseadapt/internal/host"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/oracle"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

// cmdOracle runs the upper-bound study for one workload: it records the
// workload under a random configuration sample and prints Ideal Static,
// Ideal Greedy, Oracle and ProfileAdapt (naïve and ideal), in both
// optimization modes (Sections 6.2 and 6.4).
func cmdOracle(ctx context.Context, w io.Writer, args []string) error {
	fs := flag.NewFlagSet("oracle", flag.ExitOnError)
	kernel := fs.String("kernel", "spmspm", "kernel: spmspm|spmspv")
	matID := fs.String("matrix", "R04", "dataset matrix ID")
	samples := fs.Int("samples", 32, "number of sampled configurations (paper: 256)")
	pf := addPinFlags(fs, "empty = sampled freely")
	scaleName := fs.String("scale", "small", "experiment scale: test|small|paper")
	seed := fs.Int64("seed", 42, "deterministic seed")
	ef := addEngineFlags(fs)
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var check flagcheck.Check
	check.Positive("samples", *samples)
	pf.check(&check)
	ef.check(&check)
	if err := checkErr(&check); err != nil {
		return err
	}
	sc, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		return err
	}
	sc.Seed = *seed
	if err := of.start("sparseadapt oracle", fs, args, w); err != nil {
		return err
	}
	of.annotate(sc.Seed, *scaleName)
	defer of.finish(w) //nolint:errcheck // interrupt path; success path checks
	entry, err := matrix.Entry(*matID)
	if err != nil {
		return err
	}
	src, err := host.NewSource(*kernel, *matID, entry.Generate(sc.Matrix, sc.Seed), sc.Seed, sc.Chip)
	if err != nil {
		return err
	}
	_, eps, err := src.Grid(config.Baseline, sc.Epoch)
	if err != nil {
		return err
	}
	eng, err := ef.build(w, of)
	if err != nil {
		return err
	}

	cfgs := oracle.SampleConfigs(rand.New(rand.NewSource(sc.Seed+7)), *samples, config.CacheMode)
	cfgs = pf.pinAll(cfgs)
	fmt.Fprintf(w, "recording %s on %s: %d configs x %d epochs, %d workers\n",
		*kernel, *matID, len(cfgs), len(eps), eng.Workers())
	rec, err := oracle.RecordSourceEngine(ctx, eng, sim.SharedRunMemo(), sc.Chip, sc.BW, src, sc.Epoch, cfgs)
	if err != nil {
		return err
	}
	ef.report(w, eng)

	for _, mode := range []power.Mode{power.PowerPerformance, power.EnergyEfficient} {
		fmt.Fprintf(w, "\n--- mode: %s ---\n", mode)
		stCfg, st := rec.IdealStatic(mode)
		_, gr := rec.IdealGreedy(mode)
		_, or := rec.Oracle(mode)
		fmt.Fprintf(w, "%-18s %12s %12s %12s %14s\n", "scheme", "time(ms)", "energy(mJ)", "GFLOPS", "GFLOPS/W")
		for _, row := range []struct {
			name string
			m    power.Metrics
		}{
			{"ideal-static", st}, {"ideal-greedy", gr}, {"oracle", or},
			{"profileadapt-naive", rec.ProfileAdapt(mode, true)}, {"profileadapt-ideal", rec.ProfileAdapt(mode, false)},
		} {
			fmt.Fprintf(w, "%-18s %12.3f %12.3f %12.4f %14.4f\n",
				row.name, row.m.TimeSec*1e3, row.m.EnergyJ*1e3, row.m.GFLOPS(), row.m.GFLOPSPerW())
		}
		fmt.Fprintf(w, "ideal static config: %v\n", stCfg)
	}
	return of.finish(w)
}
