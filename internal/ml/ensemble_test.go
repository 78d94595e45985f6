package ml_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"sparseadapt/internal/config"
	"sparseadapt/internal/core"
	"sparseadapt/internal/experiments"
	"sparseadapt/internal/ml"
	"sparseadapt/internal/power"
	"sparseadapt/internal/trainer"
)

// trainer.Train fits its nine trees from one presorted matrix; the saved
// model must be byte-identical to one whose trees the reference builder
// fitted parameter by parameter, on a real sweep's dataset.
func TestTrainEnsembleMatchesReference(t *testing.T) {
	sc := experiments.TestScale()
	sw := trainer.DefaultSweep("spmspv", config.CacheMode, sc.Train)
	sw.Chip = sc.Chip
	sw.Seed = sc.Seed
	ds, err := trainer.Generate(sw, power.EnergyEfficient)
	if err != nil {
		t.Fatal(err)
	}
	params := ml.DefaultTreeParams()
	got, err := trainer.Train(ds, params)
	if err != nil {
		t.Fatal(err)
	}
	x := make([][]float64, len(ds.Examples))
	for i, e := range ds.Examples {
		x[i] = e.X
	}
	want := &core.Ensemble{Trees: map[config.Param]*ml.Tree{}, Mode: ds.Mode}
	for _, p := range config.RuntimeParams {
		y := make([]int, len(ds.Examples))
		for i, e := range ds.Examples {
			y[i] = e.Y[p]
		}
		if want.Trees[p], err = ml.ReferenceTree(x, y, params); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	save := func(name string, e *core.Ensemble) []byte {
		path := filepath.Join(dir, name)
		if err := core.SaveEnsemble(path, e); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	g, w := save("got.json", got), save("want.json", want)
	if !bytes.Equal(g, w) {
		t.Fatalf("trainer.Train model (%d bytes) differs from the reference fit (%d bytes)", len(g), len(w))
	}
	splits := 0
	for _, tr := range got.Trees {
		splits += tr.NodeCount() / 2
	}
	if splits < 9 {
		t.Fatalf("only %d splits over %d examples; the comparison is vacuous", splits, len(ds.Examples))
	}
}
