package experiments

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"sparseadapt/internal/config"
	"sparseadapt/internal/core"
	"sparseadapt/internal/ml"
	"sparseadapt/internal/power"
	"sparseadapt/internal/trainer"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11L", "fig11R", "fig12", "tab6", "sec64", "disc7", "hist", "algo", "models", "phasedet", "pareto", "sched", "fmt", "mux"}
	for _, id := range want {
		if _, err := Get(id); err != nil {
			t.Fatalf("experiment %s missing: %v", id, err)
		}
	}
	if len(IDs()) != len(want) {
		t.Fatalf("registry has %d entries, want %d: %v", len(IDs()), len(want), IDs())
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown ID accepted")
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{ID: "x", Title: "demo", Columns: []string{"a", "b"}}
	r.Add("row1", 1.5, 2.25)
	r.Add("row2", 3)
	r.Note("hello %d", 7)
	s := r.String()
	for _, frag := range []string{"demo", "row1", "1.5", "2.25", "hello 7"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("rendered report missing %q:\n%s", frag, s)
		}
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); g < 3.99 || g > 4.01 {
		t.Fatalf("geomean = %v", g)
	}
	if geomean(nil) != 0 || geomean([]float64{0, -1}) != 0 {
		t.Fatal("degenerate geomeans must be 0")
	}
}

func TestModelCache(t *testing.T) {
	sc := TestScale()
	a, err := Model(sc, "spmspv", config.CacheMode, power.EnergyEfficient)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Model(sc, "spmspv", config.CacheMode, power.EnergyEfficient)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("model not cached")
	}
}

// TestModelHistoryIndependent: a cached model does not depend on what the
// process trained before it. A seed-B model obtained after a seed-A model
// equals one trained directly for seed B.
func TestModelHistoryIndependent(t *testing.T) {
	a := TestScale()
	a.Train = 0.05
	b := a
	a.Seed, b.Seed = 1000, 1502
	encode := func(e *core.Ensemble) string {
		t.Helper()
		j, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		return string(j)
	}
	modelA, err := Model(a, "spmspv", config.CacheMode, power.EnergyEfficient)
	if err != nil {
		t.Fatal(err)
	}
	after, err := Model(b, "spmspv", config.CacheMode, power.EnergyEfficient)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := trainer.GenerateEngine(context.Background(), nil, modelSweep(b, "spmspv", config.CacheMode), power.EnergyEfficient, 1)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := trainer.Train(ds, ml.DefaultTreeParams())
	if err != nil {
		t.Fatal(err)
	}
	if encode(modelA) == encode(direct) {
		t.Fatal("seeds 1000 and 1502 train identical models; the check below cannot tell them apart")
	}
	if encode(after) != encode(direct) {
		t.Fatal("the seed-1502 model depends on the seed-1000 model trained before it")
	}
}

// checkReport validates an experiment report: non-empty, finite values, and
// a sensible number of populated rows.
func checkReport(t *testing.T, rep *Report, minRows int) {
	t.Helper()
	if rep == nil {
		t.Fatal("nil report")
	}
	if len(rep.Rows) < minRows {
		t.Fatalf("%s: only %d rows (want ≥%d)", rep.ID, len(rep.Rows), minRows)
	}
	for _, row := range rep.Rows {
		for j, v := range row.Values {
			if v != v || v < 0 { // NaN or negative gain
				t.Fatalf("%s: row %q column %d has bad value %v", rep.ID, row.Label, j, v)
			}
		}
	}
	if rep.String() == "" {
		t.Fatal("empty rendering")
	}
}

func TestAllExperimentsAtTestScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	sc := TestScale()
	mins := map[string]int{
		"fig1": 4, "fig5": 7, "fig6": 9, "fig7": 9, "fig8": 9,
		"fig9": 6, "fig10": 12, "fig11L": 6, "fig11R": 5, "fig12": 4,
		"tab6": 4, "sec64": 9, "disc7": 4, "hist": 3, "algo": 4, "models": 6, "phasedet": 2, "pareto": 20, "sched": 3, "mux": 6,
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			e, err := Get(id)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := e.Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, mins[id])
			t.Log("\n" + rep.String())
		})
	}
}

// TestHeadlineShapes asserts the qualitative reproduction targets on the
// figure-6-style comparison: SparseAdapt must be clearly more
// energy-efficient than Max Cfg while keeping comparable performance.
func TestHeadlineShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	sc := TestScale()
	rep, err := Figure6(sc)
	if err != nil {
		t.Fatal(err)
	}
	gm := rep.Rows[len(rep.Rows)-1]
	if gm.Label != "GM" {
		t.Fatal("missing GM row")
	}
	cols := map[string]float64{}
	for i, c := range rep.Columns {
		cols[c] = gm.Values[i]
	}
	// Max Cfg is fast; SparseAdapt should reach a meaningful fraction of
	// its performance while clearly beating its efficiency.
	if cols["pp-gflops-sa"] < 0.5*cols["pp-gflops-max"] {
		t.Fatalf("SparseAdapt perf %.3g far below Max Cfg %.3g", cols["pp-gflops-sa"], cols["pp-gflops-max"])
	}
	if cols["pp-eff-sa"] < 1.5*cols["pp-eff-max"] {
		t.Fatalf("SparseAdapt efficiency %.3g should beat Max Cfg %.3g by a wide margin",
			cols["pp-eff-sa"], cols["pp-eff-max"])
	}
	if cols["ee-eff-sa"] < 1.0 {
		t.Fatalf("EE-mode SparseAdapt below Baseline efficiency: %.3g", cols["ee-eff-sa"])
	}
}
