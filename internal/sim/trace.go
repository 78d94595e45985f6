// Package sim is the Transmuter machine model: a trace-driven simulator of
// the tiled CGRA the paper evaluates (Section 3). Kernels execute once,
// functionally, emitting a compact instruction/access trace; the Machine
// then replays any epoch of that trace under any hardware configuration,
// simulating the reconfigurable cache hierarchy exactly (per-access tags,
// LRU, prefetching, crossbar contention) and deriving epoch timing, energy
// and the Table 2 performance counters.
//
// This substitutes for the paper's gem5 model (see DESIGN.md): the
// controller only ever observes epoch-aggregate counters, so what must be
// faithful is how those counters respond to data structure and to the
// configuration knobs, which the exact cache simulation provides.
package sim

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// EventKind classifies one traced instruction.
type EventKind uint8

const (
	// KLoadF is a floating-point load (counts toward FP-ops, Section 4).
	KLoadF EventKind = iota
	// KStoreF is a floating-point store (counts toward FP-ops).
	KStoreF
	// KLoadI is an integer/index load.
	KLoadI
	// KStoreI is an integer/index store.
	KStoreI
	// KFP is a floating-point ALU operation (counts toward FP-ops).
	KFP
	// KInt is a run of integer/bookkeeping ALU operations (see Event).
	KInt
)

// IsMem reports whether the event accesses memory.
func (k EventKind) IsMem() bool { return k <= KStoreI }

// IsStore reports whether the event writes memory.
func (k EventKind) IsStore() bool { return k == KStoreF || k == KStoreI }

// IsFP reports whether the event counts as a floating-point operation under
// the paper's epoch definition (FP ALU ops plus FP loads and stores).
func (k EventKind) IsFP() bool { return k == KLoadF || k == KStoreF || k == KFP }

// Event is one traced instruction, or one run of integer ALU operations: 8
// bytes, kept small because traces for the larger inputs run to tens of
// millions of events. A KInt event stands for Addr consecutive integer
// operations on its core, each costing one cycle; every other kind is one
// operation.
type Event struct {
	Addr uint32 // byte address (memory events), run length (KInt)
	PC   uint16 // static instruction ID, used by the stride prefetcher
	Core uint8  // issuing core: GPEs [0,nGPE), LCPs [nGPE, nGPE+tiles)
	Kind EventKind
}

// Ops returns the number of operations the event represents: a KInt run's
// length, one for every other kind.
func (e Event) Ops() int {
	if e.Kind == KInt {
		return int(e.Addr)
	}
	return 1
}

// RegionKind classifies an address range by its reuse behaviour, which the
// machine uses to decide SPM residency when the L1 is configured as
// scratchpad (Section 3.2.4).
type RegionKind uint8

const (
	// RegionStream holds streamed-once input/output data (low reuse).
	RegionStream RegionKind = iota
	// RegionReuse holds heavily reused working structures (accumulators,
	// partial-product buffers, the SpMSpV result hash) — the structures a
	// programmer would pin in scratchpad.
	RegionReuse
	// RegionBookkeep holds scheduling/bookkeeping state.
	RegionBookkeep
)

// Region is a tagged address range of the kernel's data layout.
type Region struct {
	Name     string
	Lo, Hi   uint32 // [Lo, Hi)
	Kind     RegionKind
	Priority int // lower = pinned to SPM first
}

// PhaseMark labels the start of an explicit program phase (e.g. the
// multiply → merge transition of OP-SpMSpM).
type PhaseMark struct {
	Event int // index of first event of the phase
	Name  string
}

// Trace is one kernel execution: the event stream, the data-layout regions
// and the explicit phase marks.
//
// A trace is immutable once Build returns it. Everything derived from its
// content alone — the content fingerprint, the Epochs and EpochsN grids and
// the per-epoch replay index — is computed once, on first use, and cached on
// the trace, so an oracle recording or a training sweep that replays one
// trace under many configurations pays for that work once rather than once
// per configuration. Changing a built trace would leave those caches stale.
// A Trace is shared read-only between concurrently replaying machines (the
// caches are safe for concurrent use) and must not be copied by value once
// in use.
type Trace struct {
	Events  []Event
	Regions []Region
	Phases  []PhaseMark
	NCores  int // GPE count the trace was generated for
	NLCP    int
	// FPOps is the total FP-op count (ALU + FP loads/stores).
	FPOps int
	// NNZ is the nonzero count of the kernel's primary (A) operand, the
	// size driver of the format-conversion cost charged when an algorithmic
	// reconfiguration switches storage formats mid-run. Zero when the
	// kernel did not record it.
	NNZ int

	fpOnce sync.Once
	fp     uint64 // see Fingerprint

	// mu guards the lazily built derived data: one epochAgg per distinct
	// epoch range replayed (see epochAggFor), and one grid per distinct
	// Epochs and EpochsN argument.
	mu            sync.RWMutex
	aggs          map[[2]int]*epochAgg
	budgetGrids   map[int][]EpochRange
	quantileGrids map[int][]EpochRange
}

// cached returns (*m)[k], building and storing it under mu on first use.
// Concurrent builders may race to compute the same value; builds are pure
// functions of the immutable trace, so every result is identical and the
// first one stored wins.
func cached[K comparable, V any](mu *sync.RWMutex, m *map[K]V, k K, build func() V) V {
	mu.RLock()
	v, ok := (*m)[k]
	mu.RUnlock()
	if ok {
		return v
	}
	v = build()
	mu.Lock()
	defer mu.Unlock()
	if prev, ok := (*m)[k]; ok {
		return prev
	}
	if *m == nil {
		*m = map[K]V{}
	}
	(*m)[k] = v
	return v
}

// epochAgg is the precomputed replay index of one epoch range: the indices
// of its memory events plus the configuration-independent aggregates of
// everything else. Non-memory operations cost exactly one cycle and touch no
// machine state, so their effect on an epoch is a per-core cycle count and
// the instruction totals — computable once per (trace, epoch) instead of
// once per (configuration, epoch). RunEpoch then replays only the memory
// events, which is where all configuration-dependent behaviour lives.
type epochAgg struct {
	mem      []int32 // indices into Events of the range's memory events
	baseCyc  []int64 // per-core non-memory operation count (one cycle each)
	gpeInstr int     // operations issued by GPE cores (memory included)
	lcpInstr int     // operations issued by LCP cores (memory included)
	gpeFP    int     // GPE events counting as FP ops
}

// epochAggFor returns the replay index for ep, building and caching it on
// first use.
func (t *Trace) epochAggFor(ep EpochRange) *epochAgg {
	return cached(&t.mu, &t.aggs, [2]int{ep.Start, ep.End}, func() *epochAgg { return t.buildAgg(ep) })
}

// buildAgg scans ep's events once, splitting them into the memory-event
// index and the non-memory aggregates.
func (t *Trace) buildAgg(ep EpochRange) *epochAgg {
	a := &epochAgg{}
	nGPE := t.NCores
	maxCore := -1
	nMem := 0
	for i := ep.Start; i < ep.End; i++ {
		e := &t.Events[i]
		if e.Kind.IsMem() {
			nMem++
		} else if int(e.Core) > maxCore {
			maxCore = int(e.Core)
		}
	}
	a.mem = make([]int32, 0, nMem)
	a.baseCyc = make([]int64, maxCore+1)
	for i := ep.Start; i < ep.End; i++ {
		e := &t.Events[i]
		core := int(e.Core)
		ops := e.Ops()
		if e.Kind.IsMem() {
			a.mem = append(a.mem, int32(i))
		} else {
			a.baseCyc[core] += int64(ops)
		}
		if core < nGPE {
			a.gpeInstr += ops
			if e.Kind.IsFP() {
				a.gpeFP++
			}
		} else {
			a.lcpInstr += ops
		}
	}
	return a
}

// PhaseAt returns the name of the explicit phase containing event i.
func (t *Trace) PhaseAt(i int) string {
	name := ""
	for _, p := range t.Phases {
		if p.Event > i {
			break
		}
		name = p.Name
	}
	return name
}

// RegionOf returns the region containing addr, or nil.
func (t *Trace) RegionOf(addr uint32) *Region {
	for i := range t.Regions {
		if addr >= t.Regions[i].Lo && addr < t.Regions[i].Hi {
			return &t.Regions[i]
		}
	}
	return nil
}

// EpochRange is a half-open event index range forming one control epoch.
type EpochRange struct {
	Start, End int
	FPOps      int
	Phase      string // explicit phase the epoch starts in
}

// Epochs segments the trace into FP-op-based epochs: an epoch ends when the
// number of FP operations executed, averaged across GPEs, exceeds
// fpOpsPerGPE (Section 4: 500 for SpMSpV, 5000 for SpMSpM). The FP-op
// boundaries are configuration-independent, which is what lets dynamic
// schemes, oracles and static runs be compared epoch-by-epoch (Appendix
// A.7). The grid is computed once per fpOpsPerGPE and cached; each call
// returns a fresh copy the caller owns.
func (t *Trace) Epochs(fpOpsPerGPE int) []EpochRange {
	if fpOpsPerGPE <= 0 {
		panic("sim: epoch size must be positive")
	}
	return slices.Clone(cached(&t.mu, &t.budgetGrids, fpOpsPerGPE, func() []EpochRange { return t.epochs(fpOpsPerGPE) }))
}

// epochs computes Epochs' grid.
func (t *Trace) epochs(fpOpsPerGPE int) []EpochRange {
	target := fpOpsPerGPE * t.NCores
	var out []EpochRange
	start, fp := 0, 0
	for i, e := range t.Events {
		if e.Kind.IsFP() {
			fp++
		}
		if fp >= target {
			out = append(out, EpochRange{Start: start, End: i + 1, FPOps: fp, Phase: t.PhaseAt(start)})
			start, fp = i+1, 0
		}
	}
	if start < len(t.Events) {
		out = append(out, EpochRange{Start: start, End: len(t.Events), FPOps: fp, Phase: t.PhaseAt(start)})
	}
	return out
}

// EpochsN segments the trace into exactly n epochs at equal cumulative
// FP-op quantiles. Whereas Epochs cuts at a fixed FP-op budget — so the
// epoch *count* depends on the trace — EpochsN fixes the count, which is
// what lets traces of different dataflow/format variants of the same
// kernel be compared epoch-by-epoch: epoch e covers the same fraction of
// the arithmetic work in every variant. n is clamped to [1, total FP ops]
// (an epoch must contain at least one FP op to make progress). Like Epochs,
// the grid is computed once per n and each call returns a fresh copy.
func (t *Trace) EpochsN(n int) []EpochRange {
	if n < 1 {
		n = 1
	}
	if t.FPOps > 0 && n > t.FPOps {
		n = t.FPOps
	}
	return slices.Clone(cached(&t.mu, &t.quantileGrids, n, func() []EpochRange { return t.epochsN(n) }))
}

// epochsN computes EpochsN's grid for an already clamped n.
func (t *Trace) epochsN(n int) []EpochRange {
	out := make([]EpochRange, 0, n)
	start, cum, epochFP, cut := 0, 0, 0, 1
	for i, e := range t.Events {
		if e.Kind.IsFP() {
			cum++
			epochFP++
		}
		// Cut when the cumulative FP count reaches the next quantile
		// boundary. Because n ≤ total FP ops, the boundary index advances by
		// at most one per FP event, so cutting at most once per event never
		// falls behind and exactly n epochs result.
		if cut < n && epochFP > 0 && cum*n >= cut*t.FPOps {
			out = append(out, EpochRange{Start: start, End: i + 1, FPOps: epochFP, Phase: t.PhaseAt(start)})
			start, epochFP = i+1, 0
			cut++
		}
	}
	if start < len(t.Events) || len(out) == 0 {
		out = append(out, EpochRange{Start: start, End: len(t.Events), FPOps: epochFP, Phase: t.PhaseAt(start)})
	}
	return out
}

// Builder incrementally constructs a Trace. Kernels set the active core
// with On and then emit events; work units handed to different GPEs in
// round-robin order produce the fine-grained interleaving the replay
// machine expects.
//
// The builder stores the trace compactly. Consecutive Int calls extend one
// KInt event until a memory or FP event, a switch to another core or a
// Phase mark ends the run, so a run never spans an epoch cut (epochs end
// only right after FP events) or a phase boundary. Events go into chunks
// that start small and double up to maxChunk, so a growing trace is never
// copied; Build copies the chunks once into an exact-size slice.
type Builder struct {
	t      Trace
	core   uint8
	next   uint32    // region allocation cursor
	chunks [][]Event // filled chunks, in order
	filed  int       // events in chunks
	cur    []Event   // chunk being filled; cur[:fill] holds events
	fill   int
	// run is the event count right after Int started its latest KInt
	// event, 0 after a Phase mark: Int extends that event while no other
	// event or mark follows it.
	run int
}

// Chunk sizes in events: the first chunk holds 2 KB, so a test-scale trace
// stays small, and the largest 256 KB.
const (
	firstChunk = 256
	maxChunk   = 32 << 10
)

// NewBuilder returns a Builder for a machine with nGPE worker cores and
// nLCP control cores.
func NewBuilder(nGPE, nLCP int) *Builder {
	return &Builder{
		t:    Trace{NCores: nGPE, NLCP: nLCP},
		next: 1 << 12, // leave page zero unused
		cur:  make([]Event, firstChunk),
	}
}

// AllocRegion reserves bytes of address space for a named structure,
// rounded up to whole cache lines, and records its reuse class.
func (b *Builder) AllocRegion(name string, bytes int, kind RegionKind, priority int) Region {
	if bytes <= 0 {
		bytes = 1
	}
	sz := (uint32(bytes) + LineSize - 1) &^ (LineSize - 1)
	r := Region{Name: name, Lo: b.next, Hi: b.next + sz, Kind: kind, Priority: priority}
	b.t.Regions = append(b.t.Regions, r)
	b.next += sz + LineSize // guard line between regions
	return r
}

// On selects the core that issues subsequent events. GPE indices are
// [0, nGPE); LCP c of tile t is nGPE+t.
func (b *Builder) On(core int) { b.core = uint8(core) }

// Phase marks the beginning of a named explicit phase.
func (b *Builder) Phase(name string) {
	b.t.Phases = append(b.t.Phases, PhaseMark{Event: b.filed + b.fill, Name: name})
	b.run = 0
}

// emit appends one event issued by the current core, starting a new chunk
// when the current one is full.
func (b *Builder) emit(kind EventKind, pc uint16, addr uint32) {
	if b.fill == len(b.cur) {
		b.nextChunk()
	}
	b.cur[b.fill] = Event{Addr: addr, PC: pc, Core: b.core, Kind: kind}
	b.fill++
}

// nextChunk files the full current chunk and starts one twice its size, up
// to maxChunk.
func (b *Builder) nextChunk() {
	b.chunks = append(b.chunks, b.cur)
	b.filed += len(b.cur)
	b.cur, b.fill = make([]Event, min(2*len(b.cur), maxChunk)), 0
}

// LoadF emits a floating-point load from addr by static instruction pc.
func (b *Builder) LoadF(pc uint16, addr uint32) {
	b.emit(KLoadF, pc, addr)
	b.t.FPOps++
}

// StoreF emits a floating-point store.
func (b *Builder) StoreF(pc uint16, addr uint32) {
	b.emit(KStoreF, pc, addr)
	b.t.FPOps++
}

// LoadI emits an integer load.
func (b *Builder) LoadI(pc uint16, addr uint32) { b.emit(KLoadI, pc, addr) }

// StoreI emits an integer store.
func (b *Builder) StoreI(pc uint16, addr uint32) { b.emit(KStoreI, pc, addr) }

// FP emits n floating-point ALU operations, one event each.
func (b *Builder) FP(n int) {
	for i := 0; i < n; i++ {
		b.emit(KFP, 0, 0)
		b.t.FPOps++
	}
}

// Int emits n integer ALU operations, extending the open KInt run on the
// current core or starting one. A run that reaches the largest length an
// event holds continues in a new event. n ≤ 0 emits nothing.
func (b *Builder) Int(n int) {
	for n > 0 {
		open := b.run != 0 && b.run == b.filed+b.fill
		if !open || b.cur[b.fill-1].Core != b.core || b.cur[b.fill-1].Addr == math.MaxUint32 {
			b.emit(KInt, 0, 0)
			b.run = b.filed + b.fill
		}
		run := &b.cur[b.fill-1]
		k := uint32(min(uint64(n), math.MaxUint32-uint64(run.Addr)))
		run.Addr += k
		n -= int(k)
	}
}

// SetNNZ records the nonzero count of the kernel's primary operand (see
// Trace.NNZ).
func (b *Builder) SetNNZ(nnz int) { b.t.NNZ = nnz }

// Build finalizes and returns the trace, its events in one slice of exactly
// their number. The builder must not be reused.
func (b *Builder) Build() *Trace {
	if n := b.filed + b.fill; n > 0 {
		ev := make([]Event, n)
		at := 0
		for _, c := range b.chunks {
			at += copy(ev[at:], c)
		}
		copy(ev[at:], b.cur[:b.fill])
		b.t.Events = ev
	}
	b.chunks, b.cur = nil, nil
	sort.Slice(b.t.Regions, func(i, j int) bool { return b.t.Regions[i].Lo < b.t.Regions[j].Lo })
	return &b.t
}

// Fingerprint returns a stable 64-bit FNV-1a hash of the trace content —
// events, regions, phases and topology — used as the "matrix identity"
// component of content-addressed simulation cache keys. Two traces with the
// same fingerprint replay identically, so it captures everything a cached
// epoch result depends on from the workload side. It is computed on the
// first call and cached.
func (t *Trace) Fingerprint() uint64 {
	t.fpOnce.Do(func() { t.fp = t.fingerprint() })
	return t.fp
}

func (t *Trace) fingerprint() uint64 {
	const (
		offset64 = 1469598103934665603
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	mix(uint64(t.NCores))
	mix(uint64(t.NLCP))
	mix(uint64(t.FPOps))
	mix(uint64(t.NNZ))
	for _, e := range t.Events {
		mix(uint64(e.Addr) | uint64(e.PC)<<32 | uint64(e.Core)<<48 | uint64(e.Kind)<<56)
	}
	for _, r := range t.Regions {
		mix(uint64(r.Lo) | uint64(r.Hi)<<32)
		mix(uint64(r.Kind) | uint64(uint32(r.Priority))<<8)
		for _, c := range []byte(r.Name) {
			h ^= uint64(c)
			h *= prime64
		}
	}
	for _, p := range t.Phases {
		mix(uint64(p.Event))
		for _, c := range []byte(p.Name) {
			h ^= uint64(c)
			h *= prime64
		}
	}
	return h
}

// String summarizes the trace.
func (t *Trace) String() string {
	return fmt.Sprintf("trace{events=%d fpops=%d regions=%d phases=%d cores=%d}",
		len(t.Events), t.FPOps, len(t.Regions), len(t.Phases), t.NCores)
}
