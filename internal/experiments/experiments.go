// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6) on the Go reproduction stack: each experiment is a
// named function over a Scale that builds the workloads, trains or reuses
// the predictive models, runs SparseAdapt and its comparison points, and
// returns a printable report whose rows mirror the paper's series.
//
// Absolute numbers differ from the paper (the substrate is an analytic
// machine model, not gem5 — see DESIGN.md); the reported *shapes* (who
// wins, by roughly what factor, where crossovers fall) are the
// reproduction targets recorded in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"sparseadapt/internal/config"
	"sparseadapt/internal/core"
	"sparseadapt/internal/engine"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/ml"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
	"sparseadapt/internal/trainer"
)

// Scale bounds experiment cost while preserving structure. Matrix, epoch
// and training-sweep scales of 1 approximate the paper's setup (CPU-days);
// the test scale runs in seconds.
type Scale struct {
	Matrix        float64 // dataset dimension/NNZ scale
	Epoch         float64 // epoch-size scale (paper sizes at 1)
	Train         float64 // training-sweep scale
	OracleSamples int     // S for recordings (paper: 256)
	Seed          int64
	Chip          power.Chip
	BW            float64
	// Eng is the parallel execution engine used for oracle recordings and
	// training-sweep generation; nil runs everything serially and uncached.
	// Results are identical either way — the engine only changes wall time.
	Eng *engine.Engine
}

// TestScale is small enough for unit tests and benchmarks.
func TestScale() Scale {
	return Scale{
		Matrix: 0.05, Epoch: 0.02, Train: 0.15, OracleSamples: 10,
		Seed: 42, Chip: power.Chip{Tiles: 2, GPEsPerTile: 8}, BW: sim.DefaultBandwidth,
	}
}

// SmallScale is a heavier setting for command-line runs (minutes).
func SmallScale() Scale {
	s := TestScale()
	s.Matrix, s.Epoch, s.Train, s.OracleSamples = 0.12, 0.05, 0.4, 32
	return s
}

// PaperScale approximates the paper's full configuration (very slow).
func PaperScale() Scale {
	s := TestScale()
	s.Matrix, s.Epoch, s.Train, s.OracleSamples = 1, 1, 1, 256
	return s
}

// ScaleByName maps a scale name (test, small, paper) to its Scale.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "test":
		return TestScale(), nil
	case "small":
		return SmallScale(), nil
	case "paper":
		return PaperScale(), nil
	}
	return Scale{}, fmt.Errorf("unknown scale %q (test|small|paper)", name)
}

// Report is a printable experiment result.
type Report struct {
	ID      string
	Title   string
	Columns []string
	Rows    []Row
	Notes   []string
}

// Row is one labelled series of values.
type Row struct {
	Label  string
	Values []float64
}

// Add appends a row.
func (r *Report) Add(label string, values ...float64) {
	r.Rows = append(r.Rows, Row{Label: label, Values: values})
}

// Note appends a free-text annotation.
func (r *Report) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Columns)+1)
	widths[0] = len("series")
	for _, row := range r.Rows {
		if len(row.Label) > widths[0] {
			widths[0] = len(row.Label)
		}
	}
	cells := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		cells[i] = make([]string, len(row.Values))
		for j, v := range row.Values {
			cells[i][j] = fmt.Sprintf("%.3g", v)
		}
	}
	for j, c := range r.Columns {
		widths[j+1] = len(c)
		for i := range cells {
			if j < len(cells[i]) && len(cells[i][j]) > widths[j+1] {
				widths[j+1] = len(cells[i][j])
			}
		}
	}
	fmt.Fprintf(&b, "%-*s", widths[0], "series")
	for j, c := range r.Columns {
		fmt.Fprintf(&b, "  %*s", widths[j+1], c)
	}
	b.WriteByte('\n')
	for i, row := range r.Rows {
		fmt.Fprintf(&b, "%-*s", widths[0], row.Label)
		for j := range r.Columns {
			s := ""
			if j < len(cells[i]) {
				s = cells[i][j]
			}
			fmt.Fprintf(&b, "  %*s", widths[j+1], s)
		}
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(Scale) (*Report, error)
}

var registry = map[string]Experiment{}

func register(id, title string, run func(Scale) (*Report, error)) {
	registry[id] = Experiment{ID: id, Title: title, Run: run}
}

// Get looks up an experiment by ID (e.g. "fig6").
func Get(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %s)",
			id, strings.Join(IDs(), ", "))
	}
	return e, nil
}

// IDs lists registered experiment IDs, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// --- Shared models -------------------------------------------------------

// modelSweep is the scale's Table 3 training sweep for kernel and L1 type,
// on the scale's chip and seed.
func modelSweep(sc Scale, kernel string, l1Type int) trainer.SweepSpec {
	sw := trainer.DefaultSweep(kernel, l1Type, sc.Train)
	sw.Chip = sc.Chip
	sw.Seed = sc.Seed
	return sw
}

// Model returns the per-parameter ensemble for a kernel, L1 type and
// optimization mode at the scale, trained once per process
// (trainer.Model).
func Model(sc Scale, kernel string, l1Type int, mode power.Mode) (*core.Ensemble, error) {
	return HistoryModel(sc, kernel, l1Type, mode, 1)
}

// HistoryModel is Model with an H-epoch telemetry window (H = 1 is the
// published feature layout; larger windows are the Section 7 extension,
// whose sweep measures at least H epochs per point).
func HistoryModel(sc Scale, kernel string, l1Type int, mode power.Mode, h int) (*core.Ensemble, error) {
	sw := modelSweep(sc, kernel, l1Type)
	if h > 1 && sw.Measure < h {
		sw.Measure = h
	}
	return trainer.Model(context.Background(), sc.Eng, sw, mode, h, ml.DefaultTreeParams())
}

// --- Shared workload builders --------------------------------------------

// buildSpMSpM returns the C = A·Aᵀ workload of a dataset entry (Section
// 6.1.2) at the experiment scale.
func buildSpMSpM(sc Scale, id string) (kernels.Workload, error) {
	e, err := matrix.Entry(id)
	if err != nil {
		return kernels.Workload{}, err
	}
	am := e.Generate(sc.Matrix, sc.Seed)
	a := am.ToCSC()
	at := am.ToCSR().Transpose()
	_, w, err := kernels.SpMSpM(a, at, sc.Chip.NGPE(), sc.Chip.Tiles)
	if err != nil {
		return kernels.Workload{}, err
	}
	w.Name = "spmspm/" + id
	return w, nil
}

// buildSpMSpV returns the y = A·x workload with a 50%-dense random vector
// (Section 6.1.1).
func buildSpMSpV(sc Scale, id string) (kernels.Workload, error) {
	e, err := matrix.Entry(id)
	if err != nil {
		return kernels.Workload{}, err
	}
	am := e.Generate(sc.Matrix, sc.Seed)
	a := am.ToCSC()
	x := matrix.RandomVec(randFor(sc.Seed, id), a.Cols, 0.5)
	_, w, err := kernels.SpMSpV(a, x, sc.Chip.NGPE(), sc.Chip.Tiles)
	if err != nil {
		return kernels.Workload{}, err
	}
	w.Name = "spmspv/" + id
	return w, nil
}

// ControlOptions returns the control options of a run whose model is
// kernel's. The default is the paper's policy (Section 5.4): conservative
// for SpMSpM, hybrid at tolerance otherwise. A non-empty policy name
// (conservative, aggressive, hybrid) overrides the policy but not the
// tolerance, which SpMSpM never takes: an SpMSpM run overridden to hybrid
// runs at zero tolerance. Callers validate the name; an unknown one keeps
// the default.
func ControlOptions(kernel, policy string, tolerance, epochScale float64) core.Options {
	opts := core.Options{Policy: core.Hybrid, Tolerance: tolerance, EpochScale: epochScale}
	if kernel == "spmspm" {
		opts = core.Options{Policy: core.Conservative, EpochScale: epochScale}
	}
	switch policy {
	case "conservative":
		opts.Policy = core.Conservative
	case "aggressive":
		opts.Policy = core.Aggressive
	case "hybrid":
		opts.Policy = core.Hybrid
	}
	return opts
}

// runSparseAdapt executes a workload under the trained controller and
// returns the run result.
func runSparseAdapt(sc Scale, w kernels.Workload, kernel string, l1Type int, mode power.Mode) (core.RunResult, error) {
	ens, err := Model(sc, kernel, l1Type, mode)
	if err != nil {
		return core.RunResult{}, err
	}
	start := startConfig(l1Type)
	m := sim.New(sc.Chip, sc.BW, start)
	ctl := core.NewController(ens, ControlOptions(kernel, "", core.DefaultTolerance, sc.Epoch))
	return ctl.Run(m, w), nil
}

// startConfig is the configuration the device boots in before the first
// epoch's telemetry arrives.
func startConfig(l1Type int) config.Config {
	if l1Type == config.SPMMode {
		return config.BestAvgSPM
	}
	return config.Baseline
}

// staticFor returns the Table 4 static comparison points for an L1 type.
func staticFor(l1Type int) (baseline, bestAvg, maxCfg config.Config) {
	if l1Type == config.SPMMode {
		base := config.BestAvgSPM // no SPM baseline in Table 4; Best Avg doubles
		return base, config.BestAvgSPM, config.MaxCfgSPM
	}
	return config.Baseline, config.BestAvgCache, config.MaxCfg
}

// randFor derives a deterministic RNG from the experiment seed and a
// string salt (matrix ID), so workloads are stable across runs.
func randFor(seed int64, salt string) *rand.Rand {
	h := int64(1469598103934665603)
	for _, c := range salt {
		h ^= int64(c)
		h *= 1099511628211
	}
	return rand.New(rand.NewSource(seed ^ h))
}

// addGM appends the paper's GM row: the geometric mean of each column over
// the report's rows.
func addGM(rep *Report) {
	gm := make([]float64, len(rep.Columns))
	for c := range gm {
		col := make([]float64, len(rep.Rows))
		for i, row := range rep.Rows {
			col[i] = row.Values[c]
		}
		gm[c] = geomean(col)
	}
	rep.Add("GM", gm...)
}

// geomean returns the geometric mean of positive values (the paper's GM
// rows); zero/negative values are skipped.
func geomean(vals []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vals {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
