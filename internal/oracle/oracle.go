// Package oracle implements the paper's hypothetical comparison schemes
// (Sections 5.3, 6.2, 6.4 and Appendix A.7): Ideal Static, Ideal Greedy,
// the Oracle — a globally optimal configuration sequence found by shortest
// path over the epoch × configuration DAG — and the prior-work ProfileAdapt
// scheme in both its naïve and ideal variants.
//
// All schemes are built by the paper's stitching methodology: the workload
// is simulated in its entirety under each of S sampled configurations,
// per-epoch segments are recorded, and dynamic schemes are assembled by
// stitching segments with reconfiguration penalties charged at the
// boundaries.
package oracle

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"sparseadapt/internal/config"
	"sparseadapt/internal/engine"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

// EpochRecord is one (configuration, epoch) cell of the recording.
type EpochRecord struct {
	Metrics power.Metrics
	// Dirty line counts at the end of the epoch, used to price a transition
	// away from this configuration at the boundary.
	DirtyL1, DirtyL2 int
}

// Recording holds the full S × E simulation grid.
type Recording struct {
	Chip    power.Chip
	BW      float64
	Configs []config.Config
	Epochs  []sim.EpochRange
	// NNZ is the nonzero count of the workload's primary operand, used to
	// price format-conversion cycles when a stitched transition crosses the
	// Format axis.
	NNZ int
	// Grid[s][e] is the record of epoch e under configuration s.
	Grid [][]EpochRecord
}

// RecordSource builds the recording serially and uncached; see
// RecordSourceEngine.
func RecordSource(chip power.Chip, bw float64, src *kernels.Source, epochScale float64, cfgs []config.Config) (*Recording, error) {
	return RecordSourceEngine(context.Background(), nil, nil, chip, bw, src, epochScale, cfgs)
}

// RecordSourceEngine simulates the source end to end under each
// configuration (Appendix A.7 uses S = 256 random samples; callers pick
// the sample, which should share one L1 type). Every configuration replays
// the variant it selects on that variant's epoch grid
// (kernels.Source.Grid): a kernels.Fixed source replays its one trace
// under every configuration, while a multi-variant source replays each
// dataflow × format × scheduling variant on its work-aligned grid, so rows
// stitch cell for cell although the traces differ.
//
// Each row is one engine task on a fresh machine over a shared read-only
// trace, and the grid is assembled in configuration order, so the
// recording is byte-identical at any worker count. Rows are
// content-addressed (rowKey), so a warm cache skips configurations seen in
// earlier runs, and memo (sim.RunMemo) serves replays already run in this
// process. A nil eng runs serially uncached; a nil memo disables
// in-process replay reuse.
func RecordSourceEngine(ctx context.Context, eng *engine.Engine, memo *sim.RunMemo, chip power.Chip, bw float64, src *kernels.Source, epochScale float64, cfgs []config.Config) (*Recording, error) {
	rec, rows, err := plan(chip, bw, src, epochScale, cfgs)
	if err != nil {
		return nil, err
	}
	tasks := make([]engine.Task[[]EpochRecord], len(cfgs))
	for s, cfg := range cfgs {
		cfg, r := cfg, rows[s]
		tasks[s] = engine.Task[[]EpochRecord]{Key: r.key, Compute: func(ctx context.Context) ([]EpochRecord, error) {
			return replayRow(ctx, memo, chip, bw, cfg, r.trace, r.eps)
		}}
	}
	grid, err := engine.Map(ctx, eng, tasks)
	if err != nil {
		return nil, err
	}
	rec.Grid = grid
	return rec, nil
}

// row is one configuration's replay: the variant trace, the epoch grid it
// is cut into, and the row's content key.
type row struct {
	trace *sim.Trace
	eps   []sim.EpochRange
	grid  uint64 // sim.EpochsHash(eps)
	key   engine.Key
}

// plan resolves every configuration's variant and epoch grid up front (the
// Source caches variants, the trace its grids and fingerprint), so tasks
// only replay and a build error surfaces before any simulation runs. Each
// variant's grid is cut and hashed once, not once per configuration.
func plan(chip power.Chip, bw float64, src *kernels.Source, epochScale float64, cfgs []config.Config) (*Recording, []row, error) {
	if len(cfgs) == 0 {
		return nil, nil, fmt.Errorf("oracle: no configurations to record")
	}
	nat, eps, err := src.Grid(config.Baseline, epochScale)
	if err != nil {
		return nil, nil, err
	}
	if len(eps) == 0 {
		return nil, nil, fmt.Errorf("oracle: source %s has no epochs", src.Name())
	}
	rec := &Recording{Chip: chip, BW: bw, Configs: cfgs, Epochs: eps, NNZ: nat.Trace.NNZ}
	variants := map[kernels.AlgoKey]row{}
	rows := make([]row, len(cfgs))
	for s, cfg := range cfgs {
		v, ok := variants[src.Key(kernels.AlgoOf(cfg))]
		if !ok {
			w, eps, err := src.Grid(cfg, epochScale)
			if err != nil {
				return nil, nil, err
			}
			if len(eps) != len(rec.Epochs) {
				return nil, nil, fmt.Errorf("oracle: variant %s splits into %d epochs, grid has %d", w.Name, len(eps), len(rec.Epochs))
			}
			v = row{trace: w.Trace, eps: eps, grid: sim.EpochsHash(eps)}
			variants[src.Key(kernels.AlgoOf(cfg))] = v
		}
		v.key = rowKey(v.trace, v.grid, chip, bw, cfg)
		rows[s] = v
	}
	return rec, rows, nil
}

// rowKey content-addresses one recording row by everything its replay is
// a pure function of: the trace's content, the exact epoch grid (hashed
// as sim.RunMemo keys hash it), the chip, the bandwidth and the
// configuration.
func rowKey(tr *sim.Trace, grid uint64, chip power.Chip, bw float64, cfg config.Config) engine.Key {
	return engine.NewHasher("sparseadapt/oracle-row/v3").
		U64(tr.Fingerprint()).U64(grid).
		Int(chip.Tiles, chip.GPEsPerTile).F64(bw).
		Int(cfg.Index()).Sum()
}

// replayRow replays eps of tr under cfg and keeps what stitching needs.
func replayRow(ctx context.Context, memo *sim.RunMemo, chip power.Chip, bw float64, cfg config.Config, tr *sim.Trace, eps []sim.EpochRange) ([]EpochRecord, error) {
	rs, err := sim.RunEpochs(ctx, memo, chip, bw, cfg, tr, eps)
	if err != nil {
		return nil, err
	}
	out := make([]EpochRecord, len(rs))
	for e, r := range rs {
		out[e] = EpochRecord{Metrics: r.Metrics, DirtyL1: r.DirtyL1, DirtyL2: r.DirtyL2}
	}
	return out, nil
}

// SampleConfigs draws the S-config sample for a recording, always including
// the standard comparison points with the same L1 type so Ideal Static is
// at least as good as any of them.
func SampleConfigs(rng *rand.Rand, s, l1Type int) []config.Config {
	pinned := []config.Config{config.Baseline, config.BestAvgCache, config.MaxCfg}
	if l1Type == config.SPMMode {
		pinned = []config.Config{config.BestAvgSPM, config.MaxCfgSPM}
	}
	seen := map[int]bool{}
	out := make([]config.Config, 0, s+len(pinned))
	for _, c := range pinned {
		if !seen[c.Index()] {
			out = append(out, c)
			seen[c.Index()] = true
		}
	}
	for _, c := range config.Sample(rng, s, l1Type) {
		if len(out) >= s {
			break
		}
		if !seen[c.Index()] {
			out = append(out, c)
			seen[c.Index()] = true
		}
	}
	return out
}

// transition prices the boundary between config indices a→b entering epoch
// e (no cost for a == b).
func (r *Recording) transition(a, b, e int) power.Metrics {
	if a == b {
		return power.Metrics{}
	}
	prev := r.Grid[a][e-1]
	t, en := sim.TransitionPenalty(r.Chip, r.Configs[a], r.Configs[b], prev.DirtyL1, prev.DirtyL2, r.NNZ, r.BW)
	return power.Metrics{TimeSec: t, EnergyJ: en}
}

// IdealStatic returns the sampled configuration with the best whole-run
// score — the gain an ideal compile-time predictor could reach (§6.2).
func (r *Recording) IdealStatic(mode power.Mode) (config.Config, power.Metrics) {
	bestS, bestM, bestScore := 0, power.Metrics{}, math.Inf(-1)
	for s := range r.Configs {
		var tot power.Metrics
		for e := range r.Epochs {
			tot.Add(r.Grid[s][e].Metrics)
		}
		if sc := tot.Score(mode); sc > bestScore {
			bestS, bestM, bestScore = s, tot, sc
		}
	}
	return r.Configs[bestS], bestM
}

// IdealGreedy stitches the per-epoch best configurations — SparseAdapt with
// a perfect single-step predictor (§6.2). It returns the config sequence
// and total metrics including transition penalties.
func (r *Recording) IdealGreedy(mode power.Mode) ([]int, power.Metrics) {
	seq := make([]int, len(r.Epochs))
	for e := range r.Epochs {
		best, bestScore := 0, math.Inf(-1)
		for s := range r.Configs {
			if sc := r.Grid[s][e].Metrics.Score(mode); sc > bestScore {
				best, bestScore = s, sc
			}
		}
		seq[e] = best
	}
	return seq, r.SequenceMetrics(seq)
}

// Oracle computes the globally optimal configuration sequence by dynamic
// programming over the epoch × configuration DAG (the paper's
// Dijkstra-style construction, Appendix A.7 step 7). Energy-Efficient mode
// minimizes total energy exactly (work is fixed); Power-Performance mode
// minimizes T²·E via iteratively re-weighted shortest paths, matching the
// paper's "approximate global optimum".
func (r *Recording) Oracle(mode power.Mode) ([]int, power.Metrics) {
	// Initial weights from the Ideal Static totals.
	_, ref := r.IdealStatic(mode)
	wT, wE := weights(mode, ref)
	var seq []int
	var tot power.Metrics
	for iter := 0; iter < 6; iter++ {
		seq, tot = r.shortestPath(wT, wE)
		nwT, nwE := weights(mode, tot)
		if math.Abs(nwT-wT) < 1e-9*math.Abs(wT)+1e-30 && math.Abs(nwE-wE) < 1e-9*math.Abs(wE)+1e-30 {
			break
		}
		wT, wE = nwT, nwE
	}
	return seq, tot
}

// weights returns the scalarization d(objective)/d(t,e) around the totals:
// EE minimizes E (∂ log E); PP minimizes T²E (∂ log = 2dT/T + dE/E).
func weights(mode power.Mode, tot power.Metrics) (wT, wE float64) {
	if mode == power.EnergyEfficient {
		return 0, 1
	}
	t, e := tot.TimeSec, tot.EnergyJ
	if t <= 0 || e <= 0 {
		return 1, 1
	}
	return 2 / t, 1 / e
}

// shortestPath runs the DAG DP with per-epoch cost wT·t + wE·e.
func (r *Recording) shortestPath(wT, wE float64) ([]int, power.Metrics) {
	S, E := len(r.Configs), len(r.Epochs)
	cost := func(m power.Metrics) float64 { return wT*m.TimeSec + wE*m.EnergyJ }
	dist := make([][]float64, E)
	from := make([][]int, E)
	for e := range dist {
		dist[e] = make([]float64, S)
		from[e] = make([]int, S)
	}
	for s := 0; s < S; s++ {
		dist[0][s] = cost(r.Grid[s][0].Metrics)
		from[0][s] = -1
	}
	for e := 1; e < E; e++ {
		for s := 0; s < S; s++ {
			best, bestC := -1, math.Inf(1)
			for sp := 0; sp < S; sp++ {
				c := dist[e-1][sp] + cost(r.transition(sp, s, e))
				if c < bestC {
					best, bestC = sp, c
				}
			}
			dist[e][s] = bestC + cost(r.Grid[s][e].Metrics)
			from[e][s] = best
		}
	}
	// Backtrack from the best terminal state.
	last, bestC := 0, math.Inf(1)
	for s := 0; s < S; s++ {
		if dist[E-1][s] < bestC {
			last, bestC = s, dist[E-1][s]
		}
	}
	seq := make([]int, E)
	seq[E-1] = last
	for e := E - 1; e > 0; e-- {
		seq[e-1] = from[e][seq[e]]
	}
	return seq, r.SequenceMetrics(seq)
}

// SequenceMetrics totals an arbitrary configuration-index sequence with
// transition penalties — used to price externally chosen sequences.
func (r *Recording) SequenceMetrics(seq []int) power.Metrics {
	var tot power.Metrics
	prev := -1
	for e, s := range seq {
		if prev >= 0 {
			tot.Add(r.transition(prev, s, e))
		}
		tot.Add(r.Grid[s][e].Metrics)
		prev = s
	}
	return tot
}

// ProfileAdapt models the prior-work scheme of Dubach et al. on top of the
// Ideal Greedy sequence (Appendix A.7 step 8): before each adaptation the
// hardware first switches to a profiling configuration in which every
// parameter takes its maximum value, executes part of the epoch there, and
// only then moves to the selected configuration. naive switches at every
// epoch; the ideal variant (naive=false) only at epochs where the selected
// configuration changes, which presumes an external phase detector.
func (r *Recording) ProfileAdapt(mode power.Mode, naive bool) power.Metrics {
	seq, _ := r.IdealGreedy(mode)
	profile := r.profileIndex()
	var tot power.Metrics
	prev := -1
	for e, s := range seq {
		switchNow := naive || prev < 0 || s != prev
		if switchNow {
			if prev >= 0 {
				tot.Add(r.transition(prev, profile, e))
			}
			// First half of the epoch runs in the profiling configuration,
			// second half in the selected one; the profiling section still
			// performs useful work (A.7).
			tot.Add(scale(r.Grid[profile][e].Metrics, 0.5))
			if e > 0 {
				tot.Add(r.transition(profile, s, e))
			}
			tot.Add(scale(r.Grid[s][e].Metrics, 0.5))
		} else {
			tot.Add(r.Grid[s][e].Metrics)
		}
		prev = s
	}
	return tot
}

// profileIndex returns the index of the profiling configuration (max
// ordinals, shared everything), recording it on demand is not possible, so
// the closest sampled configuration is used.
func (r *Recording) profileIndex() int {
	want := config.MaxCfg
	if r.Configs[0].L1IsSPM() {
		want = config.MaxCfgSPM
	}
	best, bestD := 0, math.MaxInt
	for s, c := range r.Configs {
		d := 0
		for p := config.Param(0); p < config.NumParams; p++ {
			dd := c[p] - want[p]
			if dd < 0 {
				dd = -dd
			}
			d += dd
		}
		if d < bestD {
			best, bestD = s, d
		}
	}
	return best
}

func scale(m power.Metrics, f float64) power.Metrics {
	return power.Metrics{TimeSec: m.TimeSec * f, EnergyJ: m.EnergyJ * f, FPOps: m.FPOps * f}
}
