package cli

import (
	"context"
	"flag"
	"fmt"
	"io"

	"sparseadapt/internal/config"
	"sparseadapt/internal/core"
	"sparseadapt/internal/flagcheck"
	"sparseadapt/internal/ml"
	"sparseadapt/internal/power"
	"sparseadapt/internal/trainer"
)

// sweepFlags is the training-sweep surface train and traingen share: the
// kernel, L1 type and objective of the Table 3 sweep, and its scale.
type sweepFlags struct {
	kernel *string
	l1     *string
	mode   *string
	scale  *float64
}

// addSweepFlags registers -kernel/-l1/-mode/-scale on fs.
func addSweepFlags(fs *flag.FlagSet) *sweepFlags {
	return &sweepFlags{
		kernel: fs.String("kernel", "spmspv", "kernel: spmspm|spmspv"),
		l1:     fs.String("l1", "cache", "L1 type: cache|spm"),
		mode:   fs.String("mode", "ee", "optimization mode: ee|pp"),
		scale:  fs.Float64("scale", 0.3, "training sweep scale (1 = Table 3)"),
	}
}

// check adds the sweep flags' range violations to the subcommand's check.
// trainer.DefaultSweep reads a scale ≤ 0 or above 1 as the full Table 3
// sweep, so such a -scale is refused here.
func (sf *sweepFlags) check(c *flagcheck.Check) {
	c.PositiveFloat("scale", *sf.scale)
	c.AtMostFloat("scale", *sf.scale, 1)
}

// sweep resolves the flags to the scaled Table 3 sweep and its objective.
func (sf *sweepFlags) sweep() (trainer.SweepSpec, power.Mode, error) {
	mode, err := power.ModeByName(*sf.mode)
	if err != nil {
		return trainer.SweepSpec{}, 0, err
	}
	l1Type, err := config.L1ByName(*sf.l1)
	if err != nil {
		return trainer.SweepSpec{}, 0, err
	}
	return trainer.DefaultSweep(*sf.kernel, l1Type, *sf.scale), mode, nil
}

// writeDataset writes ds as JSON and as CSV to whichever paths are set.
func writeDataset(w io.Writer, ds *trainer.Dataset, jsonPath, csvPath string) error {
	if jsonPath != "" {
		if err := trainer.SaveDataset(jsonPath, ds); err != nil {
			return err
		}
		fmt.Fprintln(w, "wrote", jsonPath)
	}
	if csvPath != "" {
		if err := trainer.WriteCSV(csvPath, ds); err != nil {
			return err
		}
		fmt.Fprintln(w, "wrote", csvPath)
	}
	return nil
}

func cmdTrain(ctx context.Context, w io.Writer, args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	sf := addSweepFlags(fs)
	out := fs.String("out", "model.json", "output model path")
	dsOut := fs.String("dataset", "", "optional dataset JSON output path")
	csvOut := fs.String("csv", "", "optional dataset CSV output path")
	cv := fs.Bool("cv", false, "use k-fold cross-validated hyperparameter search")
	ef := addEngineFlags(fs)
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var check flagcheck.Check
	sf.check(&check)
	ef.check(&check)
	if err := checkErr(&check); err != nil {
		return err
	}
	sw, mode, err := sf.sweep()
	if err != nil {
		return err
	}
	if err := of.start("sparseadapt train", fs, args, w); err != nil {
		return err
	}
	of.annotate(0, fmt.Sprintf("sweep=%g", *sf.scale))
	defer of.finish(w) //nolint:errcheck // interrupt path; success path checks
	eng, err := ef.build(w, of)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "generating dataset: kernel=%s l1=%s mode=%s dims=%v densities=%v bw=%v K=%d workers=%d\n",
		*sf.kernel, *sf.l1, mode, sw.Dims, sw.Densities, sw.BandwidthsGBps, sw.K, eng.Workers())
	ds, err := trainer.GenerateEngine(ctx, eng, sw, mode, 1)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "dataset: %d examples\n", len(ds.Examples))
	ef.report(w, eng)
	if err := writeDataset(w, ds, *dsOut, *csvOut); err != nil {
		return err
	}
	var ens *core.Ensemble
	if *cv {
		ens, err = trainer.TrainCV(ds, []int{6, 10, 14, 18}, []int{1, 5, 20}, 3)
	} else {
		ens, err = trainer.Train(ds, ml.DefaultTreeParams())
	}
	if err != nil {
		return err
	}
	if err := core.SaveEnsemble(*out, ens); err != nil {
		return err
	}
	fmt.Fprintln(w, "wrote", *out)
	return of.finish(w)
}

// cmdTraingen is train without the fit: it writes the Table 3 sweep's
// examples as JSON and/or CSV, the paper artifact's dataset-construction
// step. The same flags generate the same dataset as train's -dataset/-csv.
func cmdTraingen(ctx context.Context, w io.Writer, args []string) error {
	fs := flag.NewFlagSet("traingen", flag.ExitOnError)
	sf := addSweepFlags(fs)
	pf := addPinFlags(fs, "empty = search the full space")
	jsonOut := fs.String("json", "", "JSON output path")
	csvOut := fs.String("csv", "dataset.csv", "CSV output path")
	seed := fs.Int64("seed", 1, "deterministic seed")
	ef := addEngineFlags(fs)
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var check flagcheck.Check
	sf.check(&check)
	pf.check(&check)
	ef.check(&check)
	if err := checkErr(&check); err != nil {
		return err
	}
	sw, mode, err := sf.sweep()
	if err != nil {
		return err
	}
	sw.Seed = *seed
	sw.PinDataflow, sw.PinFormat = *pf.dataflow, *pf.format
	if err := of.start("sparseadapt traingen", fs, args, w); err != nil {
		return err
	}
	of.annotate(*seed, fmt.Sprintf("sweep=%g", *sf.scale))
	defer of.finish(w) //nolint:errcheck // interrupt path; success path checks
	eng, err := ef.build(w, of)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sweep: dims=%v densities=%v bandwidths=%v GB/s K=%d workers=%d\n",
		sw.Dims, sw.Densities, sw.BandwidthsGBps, sw.K, eng.Workers())
	ds, err := trainer.GenerateEngine(ctx, eng, sw, mode, 1)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "generated %d examples\n", len(ds.Examples))
	ef.report(w, eng)
	if err := writeDataset(w, ds, *jsonOut, *csvOut); err != nil {
		return err
	}
	return of.finish(w)
}
