package sim_test

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sparseadapt/internal/config"
	"sparseadapt/internal/graph"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/sim"
)

// expand returns tr with every KInt run spelled out as single operations
// (KInt events of length one) and the phase marks moved to match: the
// trace a builder that appends one event per operation produces.
func expand(tr *sim.Trace) *sim.Trace {
	out := &sim.Trace{Regions: tr.Regions, NCores: tr.NCores, NLCP: tr.NLCP, FPOps: tr.FPOps, NNZ: tr.NNZ}
	at := make([]int, len(tr.Events)+1) // at[i] is where tr.Events[i] starts in out
	for i, e := range tr.Events {
		at[i] = len(out.Events)
		if e.Kind != sim.KInt {
			out.Events = append(out.Events, e)
			continue
		}
		for range e.Addr {
			out.Events = append(out.Events, sim.Event{Addr: 1, PC: e.PC, Core: e.Core, Kind: sim.KInt})
		}
	}
	at[len(tr.Events)] = len(out.Events)
	for _, p := range tr.Phases {
		out.Phases = append(out.Phases, sim.PhaseMark{Event: at[p.Event], Name: p.Name})
	}
	return out
}

// replayGrid replays eps of tr on a fresh machine at cfg.
func replayGrid(tr *sim.Trace, cfg config.Config, eps []sim.EpochRange) []sim.EpochResult {
	m := sim.New(derivedChip, sim.DefaultBandwidth, cfg)
	m.BindTrace(tr)
	out := make([]sim.EpochResult, len(eps))
	for i, ep := range eps {
		out[i] = m.RunEpoch(ep)
	}
	return out
}

// TestRunLengthMatchesExpanded: every kernel trace, with its KInt runs
// expanded into one event per operation, cuts into the same epochs (count,
// FP-ops and phase of each) and replays bit for bit as the compact trace,
// under three static configurations and under a reconfiguration sequence.
func TestRunLengthMatchesExpanded(t *testing.T) {
	grids := []gridQuery{{20, false}, {3, false}, {12, true}, {1, true}, {5000, true}}
	reconf := []config.Config{config.MaxCfg, config.BestAvgCache, config.Baseline, config.FromIndex(12345), config.FromIndex(777)}
	for _, c := range kernelTraces() {
		tr := c.build(t)
		ex := expand(tr)
		if len(ex.Events) == len(tr.Events) {
			t.Fatalf("%s: no KInt run holds more than one operation", c.name)
		}
		for _, q := range grids {
			got, want := q.on(tr), q.on(ex)
			if len(got) != len(want) {
				t.Fatalf("%s %+v: %d epochs, expanded trace has %d", c.name, q, len(got), len(want))
			}
			for i := range got {
				if got[i].FPOps != want[i].FPOps || got[i].Phase != want[i].Phase {
					t.Fatalf("%s %+v epoch %d: FP-ops %d phase %q, expanded %d %q",
						c.name, q, i, got[i].FPOps, got[i].Phase, want[i].FPOps, want[i].Phase)
				}
			}
		}
		for _, q := range []gridQuery{{20, false}, {12, true}} {
			eps, exEps := q.on(tr), q.on(ex)
			for _, cfg := range []config.Config{config.Baseline, config.MaxCfg, config.BestAvgSPM} {
				got, want := replayGrid(tr, cfg, eps), replayGrid(ex, cfg, exEps)
				for i := range got {
					if err := sim.DiffEpochResult(got[i], want[i]); err != nil {
						t.Fatalf("%s %+v %v epoch %d: %v", c.name, q, cfg, i, err)
					}
				}
			}
		}
		eps, exEps := tr.Epochs(20), ex.Epochs(20)
		m, mx := sim.New(derivedChip, sim.DefaultBandwidth, config.Baseline), sim.New(derivedChip, sim.DefaultBandwidth, config.Baseline)
		m.BindTrace(tr)
		mx.BindTrace(ex)
		for i := range eps {
			if err := sim.DiffEpochResult(m.RunEpoch(eps[i]), mx.RunEpoch(exEps[i])); err != nil {
				t.Fatalf("%s reconfiguration sequence epoch %d: %v", c.name, i, err)
			}
			to := reconf[i%len(reconf)]
			rc, err := m.Reconfigure(to)
			rcx, errx := mx.Reconfigure(to)
			if !reflect.DeepEqual(rc, rcx) || !reflect.DeepEqual(err, errx) {
				t.Fatalf("%s epoch %d: Reconfigure to %v gave %+v, %v; expanded %+v, %v", c.name, i, to, rc, err, rcx, errx)
			}
		}
	}
}

// TestBuildExactCapacity: Build returns every kernel's events in a slice
// with no spare capacity.
func TestBuildExactCapacity(t *testing.T) {
	nGPE, nLCP := derivedChip.NGPE(), derivedChip.Tiles
	g := matrix.Uniform(rand.New(rand.NewSource(9)), 64, 64, 300).ToCSC()
	dense := [][]float64{{1, 2, 0, 1}, {0, 3, 4, 2}, {5, 0, 6, 1}, {1, 1, 1, 1}}
	traced := func(t *testing.T, w kernels.Workload, err error) *sim.Trace {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return w.Trace
	}
	cases := append(kernelTraces(),
		traceCase{"pagerank", func(t *testing.T) *sim.Trace {
			_, w, err := graph.PageRank(g, 0.85, 1e-6, 20, nGPE, nLCP)
			return traced(t, w, err)
		}},
		traceCase{"gemm", func(t *testing.T) *sim.Trace {
			_, w, err := kernels.GeMM(dense, dense, nGPE, nLCP)
			return traced(t, w, err)
		}},
		traceCase{"conv2d", func(t *testing.T) *sim.Trace {
			_, w, err := kernels.Conv2D(dense, dense[:2], nGPE, nLCP)
			return traced(t, w, err)
		}})
	for _, c := range cases {
		tr := c.build(t)
		if len(tr.Events) == 0 || cap(tr.Events) != len(tr.Events) {
			t.Errorf("%s: %d events in a slice of capacity %d", c.name, len(tr.Events), cap(tr.Events))
		}
	}
}

// TestIntRunsNeverOverflow: a run that would pass the largest length one
// event holds continues in a new event, and no operation is lost.
func TestIntRunsNeverOverflow(t *testing.T) {
	b := sim.NewBuilder(1, 1)
	b.Int(math.MaxUint32 - 1)
	b.Int(3)
	b.Int(1 << 33)
	tr := b.Build()
	total := 0
	for _, e := range tr.Events {
		if e.Kind != sim.KInt || e.Addr == 0 {
			t.Fatalf("event %+v: want a non-empty KInt run", e)
		}
		total += e.Ops()
	}
	if want := math.MaxUint32 - 1 + 3 + 1<<33; total != want {
		t.Fatalf("runs hold %d operations, want %d", total, want)
	}
	for i, e := range tr.Events[:len(tr.Events)-1] {
		if e.Addr != math.MaxUint32 {
			t.Fatalf("run %d of %d holds %d operations; only the last may hold fewer than %d", i, len(tr.Events), e.Addr, uint32(math.MaxUint32))
		}
	}
}

// refBuilder is the builder the compact one replaced: it appends one event
// per operation, a KInt operation being a run of length one.
type refBuilder struct {
	events []sim.Event
	phases []sim.PhaseMark
	fpOps  int
	core   uint8
}

func (r *refBuilder) emit(kind sim.EventKind, pc uint16, addr uint32) {
	r.events = append(r.events, sim.Event{Addr: addr, PC: pc, Core: r.core, Kind: kind})
	if kind.IsFP() {
		r.fpOps++
	}
}

// FuzzBuilderRunLength drives Builder and refBuilder through one decoded
// sequence of On, Int (any count, ≤ 0 included), FP, loads, stores and
// Phase calls, and requires the built trace, expanded, to equal the
// reference's events, FP-op count and phase marks.
func FuzzBuilderRunLength(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x21, 0x21, 0x31, 0x05, 0x21, 0x40, 0x21, 0x01, 0x21, 0x61, 0x21})
	f.Add([]byte{0x21, 0x7f, 0x21, 0x80, 0x51, 0x00, 0x61, 0x21, 0x03, 0x21, 0x02, 0x12, 0x21, 0x01})
	f.Add([]byte{0x61, 0x61, 0x21, 0x09, 0x61, 0x00, 0x00, 0x21, 0xff, 0x41, 0x21})
	f.Fuzz(func(t *testing.T, data []byte) {
		const nGPE, nLCP = 4, 2
		b, ref := sim.NewBuilder(nGPE, nLCP), &refBuilder{}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			v := data[0]
			data = data[1:]
			return v
		}
		names := []string{"multiply", "merge", "scan"}
		for len(data) > 0 {
			op, arg := next(), next()
			pc, addr := uint16(op>>4), uint32(arg)<<6|uint32(op)
			switch op % 8 {
			case 0:
				b.On(int(arg) % (nGPE + nLCP))
				ref.core = uint8(int(arg) % (nGPE + nLCP))
			case 1, 2:
				n := int(int8(arg))
				b.Int(n)
				for i := 0; i < n; i++ {
					ref.emit(sim.KInt, 0, 1)
				}
			case 3:
				n := int(arg % 5)
				b.FP(n)
				for i := 0; i < n; i++ {
					ref.emit(sim.KFP, 0, 0)
				}
			case 4:
				b.LoadF(pc, addr)
				ref.emit(sim.KLoadF, pc, addr)
			case 5:
				b.StoreF(pc, addr)
				ref.emit(sim.KStoreF, pc, addr)
			case 6:
				if arg&1 == 0 {
					b.LoadI(pc, addr)
					ref.emit(sim.KLoadI, pc, addr)
				} else {
					b.StoreI(pc, addr)
					ref.emit(sim.KStoreI, pc, addr)
				}
			case 7:
				name := names[int(arg)%len(names)]
				b.Phase(name)
				ref.phases = append(ref.phases, sim.PhaseMark{Event: len(ref.events), Name: name})
			}
		}
		tr := b.Build()
		if cap(tr.Events) != len(tr.Events) {
			t.Fatalf("%d events in a slice of capacity %d", len(tr.Events), cap(tr.Events))
		}
		for i, e := range tr.Events {
			if e.Kind == sim.KInt && (e.Addr == 0 || i > 0 && tr.Events[i-1].Kind == sim.KInt && tr.Events[i-1].Core == e.Core && !markedAt(tr.Phases, i)) {
				t.Fatalf("event %d %+v: an empty run, or a run that should have extended the one before it", i, e)
			}
		}
		ex := expand(tr)
		if !slices.Equal(ex.Events, ref.events) {
			t.Fatalf("expanded events differ from the reference:\n got %v\nwant %v", ex.Events, ref.events)
		}
		if tr.FPOps != ref.fpOps {
			t.Fatalf("FPOps %d, reference %d", tr.FPOps, ref.fpOps)
		}
		if !slices.Equal(ex.Phases, ref.phases) {
			t.Fatalf("expanded phases %v, reference %v", ex.Phases, ref.phases)
		}
	})
}

// markedAt reports whether a phase mark starts at event i.
func markedAt(phases []sim.PhaseMark, i int) bool {
	for _, p := range phases {
		if p.Event == i {
			return true
		}
	}
	return false
}
