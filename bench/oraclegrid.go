package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"sparseadapt/internal/config"
	"sparseadapt/internal/engine"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/obs"
	"sparseadapt/internal/oracle"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

// The oracle grid: every input is recorded under gridCacheConfigs
// cache-mode and gridSPMConfigs SPM-mode configurations sampled over the
// widened space, on an engine with one worker per CPU, no result cache and
// no replay memo, so the sim replay loop does the work.
const (
	gridCacheConfigs = 24
	gridSPMConfigs   = 8
	gridEpochScale   = 0.05
	gridSetups       = 3
	// gridTail caps the tail percentile of per-input recording latency:
	// a run fits about ten passes of 16 inputs.
	gridTail = 90
	// gridCheckConfigs is how many sampled configurations per checked
	// input the serial recorder re-records.
	gridCheckConfigs = 3
)

// The working set (nnz × 12 B) of the SpMSpV inputs runs from below the
// smallest modelled on-chip capacity (72 kB) to the largest (1152 kB);
// only the uniform structure is recorded at the largest size,
// gridLargestNNZ, to bound the traces held in memory. SpMSpM is
// outer-product only and smaller: its partial-product traffic grows with
// nnz × (B nonzeros per row), and the inner-product and row-wise variants
// of the same inputs need gigabytes of trace.
var (
	gridSpMSpVNNZ = []int{4000, 12000, 32000}
	gridSpMSpMNNZ = []int{2000, 6000}
)

const gridLargestNNZ = 96000

var gridChip = power.Chip{Tiles: 2, GPEsPerTile: 8}

// gridInput is one operand set of the grid with its configuration samples.
type gridInput struct {
	name   string
	kernel string
	a, b   *matrix.COO // b is the SpMSpM right operand
	x      *matrix.SparseVec
	cfgs   [2][]config.Config // cache-mode, SPM-mode
}

// source builds a fresh kernels.Source over the input; the conversions to
// the kernel's storage formats are part of the program's set-up work.
func (in gridInput) source() *kernels.Source {
	nGPE, nLCP := gridChip.NGPE(), gridChip.Tiles
	if in.kernel == "spmspv" {
		return kernels.NewSpMSpVSource(in.name, in.a.ToCSC(), in.x, nGPE, nLCP)
	}
	return kernels.NewSpMSpMSource(in.name, in.a.ToCSC(), in.b.ToCSR(), nGPE, nLCP)
}

func gridInputs(seed int64) []gridInput {
	rng := seeded(seed, "oracle-grid")
	var out []gridInput
	add := func(kernel, structure string, nnz int) {
		in := gridInput{name: fmt.Sprintf("%s/%s/%dk", kernel, structure, nnz/1000), kernel: kernel}
		if kernel == "spmspv" {
			dim := nnz / 8
			in.a = genMatrix(rng, structure, dim, nnz)
			in.x = matrix.RandomVec(rng, in.a.Cols, 0.5)
		} else {
			dim := nnz / 3
			in.a = genMatrix(rng, structure, dim, nnz)
			// A uniform right operand keeps the partial-product count at
			// about 3 × nnz whatever A's structure.
			in.b = matrix.Uniform(rng, in.a.Cols, in.a.Cols, in.a.Cols*3)
		}
		in.cfgs[0] = oracle.SampleConfigs(rng, gridCacheConfigs, config.CacheMode)
		in.cfgs[1] = oracle.SampleConfigs(rng, gridSPMConfigs, config.SPMMode)
		if kernel == "spmspm" {
			for _, cfgs := range in.cfgs {
				for i := range cfgs {
					cfgs[i][config.Dataflow] = config.DFOuter
				}
			}
		}
		out = append(out, in)
	}
	for _, st := range structures {
		for _, nnz := range gridSpMSpVNNZ {
			add("spmspv", st, nnz)
		}
		for _, nnz := range gridSpMSpMNNZ {
			add("spmspm", st, nnz)
		}
	}
	add("spmspv", "uniform", gridLargestNNZ)
	return out
}

// gridSetup is the program state the timed passes replay over.
type gridSetup struct {
	srcs []*kernels.Source
	// memEvents[i][m][s] is the memory-event count of the variant trace
	// configuration s of mode m replays for input i.
	memEvents [][2][]int
}

// setUpGrid builds every source, resolves every variant the sampled
// configurations need and replays one warm-up row per variant trace, so
// the timed passes only replay.
func setUpGrid(ctx context.Context, eng *engine.Engine, inputs []gridInput, tr *tracer) (*gridSetup, error) {
	g := &gridSetup{}
	root := tr.begin(0, "oracle-grid.setup", "")
	defer tr.end(root)
	memOf := map[*sim.Trace]int{}
	for _, in := range inputs {
		src := in.source()
		var mem [2][]int
		var warm []config.Config
		seen := map[kernels.AlgoKey]bool{}
		for m, cfgs := range in.cfgs {
			for _, cfg := range cfgs {
				key := src.Key(kernels.AlgoOf(cfg))
				id := 0
				if !seen[key] {
					seen[key] = true
					warm = append(warm, cfg)
					id = tr.begin(root, "kernels.trace", in.name)
				}
				w, err := src.Variant(cfg)
				if err != nil {
					return nil, err
				}
				tr.count(id, len(w.Trace.Events))
				tr.end(id)
				if _, ok := memOf[w.Trace]; !ok {
					memOf[w.Trace] = countMemEvents(w.Trace)
				}
				mem[m] = append(mem[m], memOf[w.Trace])
			}
		}
		// The warm-up rows share the grid's L1 mode split: oracle
		// recordings take one L1 type at a time.
		for _, l1 := range []int{config.CacheMode, config.SPMMode} {
			var cfgs []config.Config
			for _, c := range warm {
				if c[config.L1Type] == l1 {
					cfgs = append(cfgs, c)
				}
			}
			if len(cfgs) == 0 {
				continue
			}
			if _, err := oracle.RecordSourceEngine(ctx, eng, nil, gridChip, sim.DefaultBandwidth, src, gridEpochScale, cfgs); err != nil {
				return nil, err
			}
		}
		g.srcs = append(g.srcs, src)
		g.memEvents = append(g.memEvents, mem)
	}
	return g, nil
}

func countMemEvents(t *sim.Trace) int {
	n := 0
	for _, e := range t.Events {
		if e.Kind.IsMem() {
			n++
		}
	}
	return n
}

// gridPass records every input once and returns the per-input recording
// latencies and the digest of every row.
func gridPass(ctx context.Context, eng *engine.Engine, g *gridSetup, inputs []gridInput, tr *tracer, parent int) ([]time.Duration, [][2]*oracle.Recording, string, error) {
	lat := make([]time.Duration, len(inputs))
	recs := make([][2]*oracle.Recording, len(inputs))
	for i, in := range inputs {
		d, err := tr.timed(parent, "oracle.record", in.name, func(int) error {
			for m, cfgs := range in.cfgs {
				rec, err := oracle.RecordSourceEngine(ctx, eng, nil, gridChip, sim.DefaultBandwidth, g.srcs[i], gridEpochScale, cfgs)
				if err != nil {
					return fmt.Errorf("%s: %w", in.name, err)
				}
				recs[i][m] = rec
			}
			return nil
		})
		if err != nil {
			return nil, nil, "", err
		}
		lat[i] = d
	}
	dg := newDigest()
	for _, rr := range recs {
		for _, rec := range rr {
			digestRows(dg, rec.Grid)
		}
	}
	return lat, recs, dg.String(), nil
}

func digestRows(dg *digest, grid [][]oracle.EpochRecord) {
	for _, row := range grid {
		for _, r := range row {
			dg.f64(r.Metrics.TimeSec, r.Metrics.EnergyJ, r.Metrics.FPOps)
			dg.ints(r.DirtyL1, r.DirtyL2)
		}
	}
}

func runOracleGrid(ctx context.Context, opt options, res *result) error {
	inputs := gridInputs(opt.seed)
	workers := runtime.NumCPU()
	rows := 0
	for _, in := range inputs {
		rows += len(in.cfgs[0]) + len(in.cfgs[1])
	}
	var tr *tracer
	if opt.traced {
		tr = newTracer()
	}

	// Set-up, repeated on fresh sources; the timed passes use the last one,
	// which a traced run also traces.
	var setups []float64
	var g *gridSetup
	for i := 0; i < gridSetups; i++ {
		var str *tracer
		if i == gridSetups-1 {
			str = tr
		}
		g = nil // let the previous set-up's traces go before the next
		runtime.GC()
		start := time.Now()
		var err error
		if g, err = setUpGrid(ctx, engine.New(engine.Options{Workers: workers}), inputs, str); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res.Metrics.set("setup_s", median(setups), "s", len(setups), "median of set-ups")

	seconds := float64(opt.seconds)
	if opt.traced {
		seconds /= 2
	}
	untraced, err := gridPasses(ctx, engine.New(engine.Options{Workers: workers}), g, inputs, seconds, nil)
	res.Attempted += rows * len(untraced.walls)
	if err != nil {
		res.Failed += rows
		return err
	}
	passes := untraced.walls
	res.Metrics.set("wall_s", median(passes), "s", len(passes), "median grid pass")
	latencySummary(res.Metrics, "p50_ms", "tail_ms", untraced.recordMs, gridTail)
	mem := g.memPerPass()
	res.Metrics.set("sim_mevents_per_s", float64(mem)/median(passes)/1e6, "Mevents/s", len(passes), "memory events × configs per host second")
	res.Metrics.set("peak_rss_mb", selfPeakRSSMB(), "MB", 1, "bench process (the program runs in it)")

	// Correctness: every pass replays identical rows; the digest matches the
	// pinned one for this seed; FP-ops are conserved per row; and a seeded
	// subset re-recorded by the serial recorder is byte-identical.
	res.Digest = untraced.digests[0]
	for i, d := range untraced.digests {
		if d != res.Digest {
			res.problem("pass %d digest %s differs from pass 0 (%s)", i, d, res.Digest)
		}
	}
	checkPinned(res, opt.seed, 0)
	checkGridRows(res, g, inputs, untraced.first)
	if err := checkSerial(res, g, inputs, untraced.first, opt.seed); err != nil {
		return err
	}
	if !opt.traced {
		return nil
	}

	// Traced passes: the benchmark's spans around each recording plus the
	// engine's own per-task spans give replay time per memory event and
	// pool occupancy.
	engTrace := obs.NewTraceRecorder()
	engBase := time.Since(tr.origin)
	traced, err := gridPasses(ctx, engine.New(engine.Options{Workers: workers, Trace: engTrace}), g, inputs, seconds, tr)
	if err != nil {
		return err
	}
	res.Metrics.set("bench.trace_overhead", median(traced.walls)/median(passes)-1, "ratio", len(traced.walls), "traced ÷ untraced pass − 1")
	tasks, err := importEngineSpans(tr, engTrace, engBase)
	if err != nil {
		return err
	}
	var busy time.Duration
	for _, t := range tasks {
		busy += t.End - t.Start
	}
	spans := tr.snapshot()
	var passWall time.Duration
	for _, d := range durations(spans, "oracle-grid.pass") {
		passWall += d
	}
	n := len(traced.walls)
	res.Metrics.set("engine.busy_ratio", busy.Seconds()/(passWall.Seconds()*float64(workers)), "fraction", len(tasks), "task time ÷ (pass wall × workers)")
	res.Metrics.set("engine.task_ms.mean", msOf(busy)/float64(len(tasks)), "ms", len(tasks), "")
	res.Metrics.set("engine.cache_hit_ratio", 0, "fraction", len(tasks), "no result cache on this workload")
	res.Metrics.set("engine.tail_idle_s", tailIdle(spans, tasks, workers).Seconds()/float64(n), "s", n, "per pass: workers idle at the end of each recording's batch")
	res.Metrics.set("sim.mem_events", float64(mem), "count", rows, "per pass")
	res.Metrics.set("sim.rows", float64(rows), "count", rows, "per pass")
	res.Metrics.set("sim.ns_per_mem_event", float64(busy.Nanoseconds())/float64(mem*n), "ns", len(tasks), "engine task time ÷ memory events replayed")
	if err := runProbe(ctx, tr, probeForGrid(inputs)); err != nil {
		return err
	}
	spans = tr.snapshot()
	addTraceLayers(res.Metrics, spans)
	return writeChrome(traceFile(opt, res.Workload), spans)
}

// gridRun is what a run of timed passes measured.
type gridRun struct {
	walls    []float64 // seconds per pass
	recordMs []float64 // per-input recording latency, every pass
	digests  []string  // per pass
	first    [][2]*oracle.Recording
}

// gridPasses runs whole passes over the grid until the next one would
// overrun seconds; it always runs at least one.
func gridPasses(ctx context.Context, eng *engine.Engine, g *gridSetup, inputs []gridInput, seconds float64, tr *tracer) (gridRun, error) {
	var r gridRun
	start := time.Now()
	for len(r.walls) == 0 || time.Since(start).Seconds()+median(r.walls) <= seconds {
		id := tr.begin(0, "oracle-grid.pass", "")
		t0 := time.Now()
		lat, recs, dg, err := gridPass(ctx, eng, g, inputs, tr, id)
		tr.end(id)
		if err != nil {
			return r, err
		}
		r.walls = append(r.walls, time.Since(t0).Seconds())
		for _, d := range lat {
			r.recordMs = append(r.recordMs, msOf(d))
		}
		r.digests = append(r.digests, dg)
		if r.first == nil {
			r.first = recs
		}
	}
	return r, nil
}

func (g *gridSetup) memPerPass() int {
	mem := 0
	for _, m := range g.memEvents {
		for _, ms := range m {
			for _, n := range ms {
				mem += n
			}
		}
	}
	return mem
}

// checkGridRows checks FP-op conservation: every row's epochs together
// carry exactly the FP operations of the variant trace it replayed.
func checkGridRows(res *result, g *gridSetup, inputs []gridInput, recs [][2]*oracle.Recording) {
	for i, in := range inputs {
		for m, rec := range recs[i] {
			for s, row := range rec.Grid {
				w, err := g.srcs[i].Variant(in.cfgs[m][s])
				if err != nil {
					res.problem("%s: %v", in.name, err)
					return
				}
				sum := 0.0
				for _, r := range row {
					sum += r.Metrics.FPOps
				}
				if sum != float64(w.Trace.FPOps) {
					res.problem("%s config %d: row FP-ops %.0f != trace FP-ops %d", in.name, s, sum, w.Trace.FPOps)
				}
			}
		}
	}
}

// checkSerial re-records a seeded subset of configurations with the
// serial recorder and requires the rows to be byte-identical to the
// engine's.
func checkSerial(res *result, g *gridSetup, inputs []gridInput, recs [][2]*oracle.Recording, seed int64) error {
	rng := seeded(seed, "oracle-grid/check")
	for _, i := range rng.Perm(len(inputs))[:len(structures)] {
		in := inputs[i]
		m := rng.Intn(2)
		var cfgs []config.Config
		var want [][]oracle.EpochRecord
		for _, s := range rng.Perm(len(in.cfgs[m]))[:gridCheckConfigs] {
			cfgs = append(cfgs, in.cfgs[m][s])
			want = append(want, recs[i][m].Grid[s])
		}
		rec, err := oracle.RecordSource(gridChip, sim.DefaultBandwidth, g.srcs[i], gridEpochScale, cfgs)
		if err != nil {
			return err
		}
		a, b := newDigest(), newDigest()
		digestRows(a, rec.Grid)
		digestRows(b, want)
		if a.String() != b.String() {
			res.problem("%s: serial re-record differs from the engine's rows", in.name)
		}
	}
	return nil
}

// importEngineSpans copies the engine's per-task spans into tr as
// children of the recording span that ran them, and returns them. The
// engine stamps spans relative to its creation, base after tr's origin.
func importEngineSpans(tr *tracer, rec *obs.TraceRecorder, base time.Duration) ([]span, error) {
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			TS  float64 `json:"ts"`
			Dur float64 `json:"dur"`
			PID int     `json:"pid"`
			TID int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, err
	}
	var records []span
	for _, s := range tr.snapshot() {
		if s.Name == "oracle.record" {
			records = append(records, s)
		}
	}
	var out []span
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.PID != 2 { // pid 2 is the engine's wall-clock track
			continue
		}
		start := base + time.Duration(ev.TS*float64(time.Microsecond))
		end := start + time.Duration(ev.Dur*float64(time.Microsecond))
		s := span{Name: "sim.replay", Req: fmt.Sprintf("engine-tid-%d", ev.TID), Start: start, End: end}
		mid := start + (end-start)/2
		i := sort.Search(len(records), func(i int) bool { return records[i].End >= mid })
		if i < len(records) && records[i].Start <= mid {
			s.Parent = records[i].ID
		}
		s.ID = tr.add(s.Parent, s.Name, s.Req, tr.origin.Add(start), tr.origin.Add(end))
		out = append(out, s)
	}
	return out, nil
}

// tailIdle sums, over every recording span, the time each worker sat idle
// between its last task of that recording and the recording's end: the
// load-imbalance loss at each engine batch's tail.
func tailIdle(spans, tasks []span, workers int) time.Duration {
	var idle time.Duration
	for _, s := range spans {
		if s.Name != "oracle.record" {
			continue
		}
		last := map[string]time.Duration{}
		for _, t := range tasks {
			if t.Parent == s.ID {
				last[t.Req] = max(last[t.Req], t.End)
			}
		}
		for _, end := range last {
			idle += s.End - end
		}
		// A worker that ran none of the recording's tasks idled throughout.
		idle += time.Duration(workers-len(last)) * (s.End - s.Start)
	}
	return idle
}
