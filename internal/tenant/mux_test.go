package tenant

import (
	"math"
	"reflect"
	"testing"

	"sparseadapt/internal/config"
	"sparseadapt/internal/core"
	"sparseadapt/internal/obs"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

var chip = power.Chip{Tiles: 2, GPEsPerTile: 8}

// streamTrace: each GPE streams its own array once (memory-bound, no reuse).
func streamTrace(perGPE int) *sim.Trace {
	b := sim.NewBuilder(chip.NGPE(), chip.Tiles)
	regions := make([]sim.Region, chip.NGPE())
	for g := range regions {
		regions[g] = b.AllocRegion("stream", perGPE*8, sim.RegionStream, 1)
	}
	b.Phase("stream")
	for i := 0; i < perGPE; i++ {
		for g := 0; g < chip.NGPE(); g++ {
			b.On(g)
			b.LoadF(1, regions[g].Lo+uint32(i*8))
			b.FP(1)
		}
	}
	return b.Build()
}

// reuseTrace: every GPE loops over one small hot set (cache-friendly once
// warm, expensive when cold — the trace shape that makes tenant switches
// visible to the watchdog).
func reuseTrace(wsBytes, iters int) *sim.Trace {
	b := sim.NewBuilder(chip.NGPE(), chip.Tiles)
	r := b.AllocRegion("hot", wsBytes, sim.RegionReuse, 0)
	b.Phase("reuse")
	for it := 0; it < iters; it++ {
		for g := 0; g < chip.NGPE(); g++ {
			b.On(g)
			b.LoadF(2, r.Lo+uint32((it*64+g*8)%wsBytes))
			b.FP(2)
		}
	}
	return b.Build()
}

// job builds a tenant job over the trace's work-aligned epoch grid.
func job(id string, class Class, tr *sim.Trace, cfg config.Config, epochFP int) Job {
	return Job{ID: id, Class: class, Trace: tr, Epochs: tr.Epochs(epochFP), Start: cfg}
}

// threeTenants is the canonical mixed workload: an interactive reuse
// kernel, a batch stream kernel, and a scavenger reuse kernel on a
// different configuration.
func threeTenants() []Job {
	cfgB := config.Baseline
	cfgC := config.Baseline
	cfgC[config.Clock] = 2
	return []Job{
		job("alice", Interactive, reuseTrace(4096, 600), config.Baseline, 100),
		job("bob", Batch, streamTrace(600), cfgB, 100),
		job("carol", Scavenger, reuseTrace(8192, 400), cfgC, 100),
	}
}

func runMux(t *testing.T, jobs []Job, opts Options) MuxResult {
	t.Helper()
	x := New(chip, sim.DefaultBandwidth, opts)
	for _, j := range jobs {
		if err := x.Add(j); err != nil {
			t.Fatal(err)
		}
	}
	res, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Two runs with identical inputs must produce identical schedules and
// ledgers — the mux loop is strictly sequential and seed-free.
func TestMuxDeterministicReplay(t *testing.T) {
	for _, q := range []int{1, 3, 7} {
		a := runMux(t, threeTenants(), Options{Quantum: q})
		b := runMux(t, threeTenants(), Options{Quantum: q})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("quantum %d: replay diverged", q)
		}
	}
}

// The determinism contract across quantum lengths: scheduling may change
// WHEN a tenant's epochs run and what they cost (cold caches after
// resume), but never the work itself — epoch partition and FP-op totals
// are quantum-invariant and match the solo run exactly.
func TestMuxWorkInvariantAcrossQuanta(t *testing.T) {
	solo := map[string]TenantResult{}
	for _, j := range threeTenants() {
		r, err := Isolated(chip, sim.DefaultBandwidth, j)
		if err != nil {
			t.Fatal(err)
		}
		solo[j.ID] = r
	}
	for _, q := range []int{1, 2, 5, 50} {
		res := runMux(t, threeTenants(), Options{Quantum: q})
		for _, tr := range res.Tenants {
			s := solo[tr.ID]
			if tr.EpochsRun != s.EpochsRun {
				t.Fatalf("q=%d %s: %d epochs vs solo %d", q, tr.ID, tr.EpochsRun, s.EpochsRun)
			}
			if tr.Metrics.FPOps != s.Metrics.FPOps {
				t.Fatalf("q=%d %s: FP ops %v vs solo %v", q, tr.ID, tr.Metrics.FPOps, s.Metrics.FPOps)
			}
		}
	}
}

// With a quantum long enough that every tenant runs to completion in one
// stretch, each tenant's entire ledger is byte-identical to its solo run:
// a context switch hands over a machine state-identical to a fresh one.
func TestMuxSoloEquivalenceAtFullQuantum(t *testing.T) {
	res := runMux(t, threeTenants(), Options{Quantum: 1 << 20})
	if res.Switches != 2 {
		t.Fatalf("3 tenants at full quantum: %d switches, want 2", res.Switches)
	}
	for _, tr := range res.Tenants {
		j := jobByID(t, tr.ID)
		s, err := Isolated(chip, sim.DefaultBandwidth, j)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Metrics != s.Metrics {
			t.Fatalf("%s: mux metrics %+v != solo %+v", tr.ID, tr.Metrics, s.Metrics)
		}
	}
}

func jobByID(t *testing.T, id string) Job {
	t.Helper()
	for _, j := range threeTenants() {
		if j.ID == id {
			return j
		}
	}
	t.Fatalf("no job %s", id)
	return Job{}
}

// Conservation: the fabric makespan equals the sum of every tenant's
// accounted service (own epochs + attributed switch costs) — nothing is
// double-charged or dropped — and the last finisher's completion time is
// the makespan.
func TestMuxConservation(t *testing.T) {
	res := runMux(t, threeTenants(), Options{Quantum: 2})
	var sum, switches, lastFinish float64
	for _, tr := range res.Tenants {
		sum += tr.Metrics.TimeSec + tr.SwitchTimeSec
		switches += tr.SwitchTimeSec
		if tr.FinishSec > lastFinish {
			lastFinish = tr.FinishSec
		}
		if tr.ServiceSec != tr.Metrics.TimeSec+tr.SwitchTimeSec {
			t.Fatalf("%s: service %v != epochs %v + switch %v", tr.ID, tr.ServiceSec, tr.Metrics.TimeSec, tr.SwitchTimeSec)
		}
	}
	if relDiff(sum, res.TotalSec) > 1e-9 {
		t.Fatalf("Σ service %v != makespan %v", sum, res.TotalSec)
	}
	if relDiff(lastFinish, res.TotalSec) > 1e-9 {
		t.Fatalf("last finish %v != makespan %v", lastFinish, res.TotalSec)
	}
	if switches <= 0 {
		t.Fatal("interleaving three tenants must charge switch time")
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// WDRR proportionality: while every tenant is backlogged, each round
// serves exactly Quantum × weight epochs per tenant, in admission order.
func TestWDRRServiceProportionalToWeight(t *testing.T) {
	jobs := []Job{
		job("i", Interactive, streamTrace(2000), config.Baseline, 20),
		job("b", Batch, streamTrace(2000), config.Baseline, 20),
		job("s", Scavenger, streamTrace(2000), config.Baseline, 20),
	}
	const q = 2
	res := runMux(t, jobs, Options{Quantum: q})
	want := map[string]int{"i": q * 8, "b": q * 4, "s": q * 1}
	// Check the first two full rounds (all tenants have plenty of work).
	if len(res.Schedule) < 6 {
		t.Fatalf("schedule too short: %v", res.Schedule)
	}
	order := []string{"i", "b", "s"}
	for round := 0; round < 2; round++ {
		for k, id := range order {
			e := res.Schedule[round*3+k]
			if e.Tenant != id || e.Epochs != want[id] {
				t.Fatalf("round %d slot %d: got %+v, want %s×%d", round, k, e, id, want[id])
			}
		}
	}
}

// Flat policy ignores class weights: every backlogged tenant gets exactly
// Quantum epochs per round.
func TestMuxFlatPolicy(t *testing.T) {
	jobs := []Job{
		job("i", Interactive, streamTrace(800), config.Baseline, 20),
		job("s", Scavenger, streamTrace(800), config.Baseline, 20),
	}
	res := runMux(t, jobs, Options{Quantum: 3, Flat: true})
	for k := 0; k < 4; k++ {
		if res.Schedule[k].Epochs != 3 {
			t.Fatalf("flat schedule entry %d: %+v", k, res.Schedule[k])
		}
	}
}

// The golden interference scenario end-to-end through the mux: a tenant
// running an interference-aware control loop sees cost spikes only at
// tenant-switch boundaries (cold caches), classifies them as interference
// and never trips into fallback.
func TestMuxInterferenceClassifiedNoFallback(t *testing.T) {
	opts := core.DefaultResilientOptions()
	opts.WatchdogWindow = 6
	opts.DegradeFactor = 1.5
	opts.DegradeEpochs = 3

	// Working set of 16 lines: one epoch's walk re-touches all of it, so
	// exactly the first epoch after each resume runs cold.
	hot := job("hot", Interactive, reuseTrace(1024, 2500), config.Baseline, 100)
	hot.Control = core.NewResilientController(nil, opts)
	noisy := job("noisy", Batch, streamTrace(1500), config.Baseline, 100)

	x := New(chip, sim.DefaultBandwidth, Options{Quantum: 8, Flat: true})
	if err := x.Add(hot); err != nil {
		t.Fatal(err)
	}
	if err := x.Add(noisy); err != nil {
		t.Fatal(err)
	}
	res, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	var hotRes TenantResult
	for _, tr := range res.Tenants {
		if tr.ID == "hot" {
			hotRes = tr
		}
	}
	rep := hotRes.Resilience
	if rep.InterferenceEpochs == 0 {
		t.Fatalf("cold resumes must classify as interference: %+v (switches=%d)", rep, hotRes.Switches)
	}
	if rep.Fallbacks != 0 || rep.PermanentFallback {
		t.Fatalf("interference must not trip the watchdog: %+v", rep)
	}
	if hotRes.Switches == 0 {
		t.Fatal("expected context switches into the hot tenant")
	}
}

// Metrics surface: the tenant_* family is populated after a run.
func TestMuxMetricsFamily(t *testing.T) {
	reg := obs.NewRegistry()
	x := New(chip, sim.DefaultBandwidth, Options{Quantum: 2, Metrics: reg})
	for _, j := range threeTenants() {
		if err := x.Add(j); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := x.Run(); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"tenant_epochs_total":   false,
		"tenant_switches_total": false,
		"tenant_active":         false,
	}
	for _, ms := range reg.Snapshot() {
		if _, ok := want[ms.Name]; ok {
			if ms.Value <= 0 {
				t.Fatalf("%s = %v, want > 0", ms.Name, ms.Value)
			}
			want[ms.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("metric %s not registered", name)
		}
	}
}

func TestMuxValidation(t *testing.T) {
	x := New(chip, sim.DefaultBandwidth, Options{})
	if err := x.Add(Job{}); err == nil {
		t.Fatal("empty job must be rejected")
	}
	j := job("a", Batch, streamTrace(50), config.Baseline, 10)
	if err := x.Add(j); err != nil {
		t.Fatal(err)
	}
	if err := x.Add(j); err == nil {
		t.Fatal("duplicate tenant ID must be rejected")
	}
	wrong := sim.NewBuilder(4, 1).Build()
	if err := x.Add(Job{ID: "b", Trace: wrong, Epochs: []sim.EpochRange{{}}, Start: config.Baseline}); err == nil {
		t.Fatal("core-count mismatch must be rejected")
	}
	empty := New(chip, sim.DefaultBandwidth, Options{})
	if _, err := empty.Run(); err == nil {
		t.Fatal("empty mux must refuse to run")
	}
}

func TestJainIndex(t *testing.T) {
	if j := Jain([]float64{1, 1, 1}); math.Abs(j-1) > 1e-12 {
		t.Fatalf("equal shares: %v", j)
	}
	if j := Jain([]float64{1, 0, 0}); math.Abs(j-1.0/3) > 1e-12 {
		t.Fatalf("one-taker: %v", j)
	}
	if Jain(nil) != 0 || Jain([]float64{0, 0}) != 0 {
		t.Fatal("degenerate inputs must return 0")
	}
	if Slowdown(2, 1) != 2 || Slowdown(1, 0) != 0 {
		t.Fatal("slowdown arithmetic")
	}
}

func BenchmarkMuxInterleave(b *testing.B) {
	jobs := threeTenants()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := New(chip, sim.DefaultBandwidth, Options{Quantum: 4})
		for _, j := range jobs {
			if err := x.Add(j); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := x.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
