package sim

import (
	"fmt"
	"sort"

	"sparseadapt/internal/config"
	"sparseadapt/internal/power"
)

// Timing constants (cycles unless noted). The evaluated system is clocked
// by the global DVFS clock, so DRAM latency in cycles shrinks with the
// clock — the mechanism that makes low clocks cheap for memory-bound
// phases.
const (
	latL1Private = 1
	latL1Shared  = 2 // includes crossbar arbitration (Section 3.2.3)
	latL2Private = 8
	latL2Shared  = 10
	dramLatNs    = 80.0
	// flushCyclesPerLine approximates the per-dirty-line writeback cost of
	// a fine-grained reconfiguration (Section 5.2 reports 100–961k cycles
	// for full L1 flushes of up to 16×64 kB, i.e. ≈60 cycles/line).
	flushCyclesPerLine = 60
	// telemetryCycles is the per-epoch host decision+communication cost
	// (Section 3.4: 50–100 host cycles).
	telemetryCycles = 100
	// spmOrchestration is the extra bookkeeping cost per scratchpad line
	// fill (SPM trades tag lookups for explicit data orchestration,
	// Section 3.2.4).
	spmOrchestration = 2
	// overlapLeak is the fraction of the non-bottleneck time component that
	// is exposed on top of the roofline max (imperfect compute/memory
	// overlap on in-order cores).
	overlapLeak = 0.25
)

// DefaultBandwidth is the evaluated off-chip bandwidth (Section 5.2: 1 GB/s
// to keep the 2×8 system's compute-to-memory ratio representative).
const DefaultBandwidth = 1e9

// Machine is the Transmuter model: it holds the reconfigurable memory
// hierarchy state and replays trace epochs under the current configuration.
type Machine struct {
	chip power.Chip
	bw   float64 // off-chip bytes/sec
	cfg  config.Config

	l1   []*Bank // one per GPE
	l2   []*Bank // one per tile
	l1pf []*Prefetcher
	l2pf []*Prefetcher

	// SPM residency state (L1 scratchpad mode).
	spmRanges []Region
	spmFilled map[uint32]bool
	// Per-core staged stream line for non-resident SPM traffic.
	streamLine  []uint32
	streamValid []bool

	trace *Trace

	// mx is the optional registry-backed instrumentation (see Instrument);
	// nil means observability is off and costs one branch per epoch.
	mx *machineMetrics

	// Pending reconfiguration penalty, folded into the next epoch.
	pendCycles float64
	pendCounts power.Counts

	// Per-core routing, built once from the chip and indexed by the uint8
	// core id, so the per-access lookups neither divide nor bounds-check:
	// coreTile is the core's tile (an LCP's is the tile it controls) and
	// coreL1Base the first L1 bank of that tile.
	coreTile   [256]int32
	coreL1Base [256]int32
	// gpt splits a line address across the L1 banks of a tile (shared L1)
	// and l2Banks across the L2 banks (shared L2).
	gpt     divisor
	l2Banks divisor

	// Derived per-configuration values cached off the hot path (decoding
	// the packed config on every access costs more than the tag scan);
	// refreshed by refreshDerived on construction and reconfiguration.
	dvNGPE     int  // chip.NGPE()
	dvL1Shared bool // cfg.L1Shared()
	dvL2Shared bool // cfg.L2Shared()
	dvL1SPM    bool // cfg.L1IsSPM()
	dvPrefDeg  int  // cfg.PrefetchDegree()
	dvDRAMCyc  int  // DRAM latency in cycles at the current clock

	// Per-epoch scratch state.
	cyc        []int64 // per-core cycles
	bankAcc    []int   // per-L1-bank accesses (contention model)
	l2BankAcc  []int
	epCnt      power.Counts
	gpeInstr   int
	lcpInstr   int
	gpeFP      int
	readBytes  int
	writeBytes int
}

type bankTotals struct {
	acc, miss, pref, useful int
}

// New constructs a machine with the given chip topology, off-chip bandwidth
// in bytes/second and initial configuration.
func New(chip power.Chip, bwBytesPerSec float64, cfg config.Config) *Machine {
	if !cfg.Valid() {
		panic("sim: invalid configuration")
	}
	m := &Machine{chip: chip, bw: bwBytesPerSec, cfg: cfg}
	m.l1 = make([]*Bank, chip.L1Banks())
	m.l1pf = make([]*Prefetcher, chip.L1Banks())
	for i := range m.l1 {
		m.l1[i] = NewBank(cfg.L1CapKB() * 1024)
		m.l1pf[i] = &Prefetcher{}
	}
	m.l2 = make([]*Bank, chip.L2Banks())
	m.l2pf = make([]*Prefetcher, chip.L2Banks())
	for i := range m.l2 {
		m.l2[i] = NewBank(cfg.L2CapKB() * 1024)
		m.l2pf[i] = &Prefetcher{}
	}
	nGPE := chip.NGPE()
	for c := range m.coreTile {
		if c < nGPE {
			tile := c / chip.GPEsPerTile
			m.coreTile[c] = int32(tile)
			m.coreL1Base[c] = int32(tile * chip.GPEsPerTile)
		} else {
			m.coreTile[c] = int32(c - nGPE)
		}
	}
	m.gpt = newDivisor(chip.GPEsPerTile)
	m.l2Banks = newDivisor(chip.L2Banks())
	m.cyc = make([]int64, chip.NGPE()+chip.Tiles)
	m.bankAcc = make([]int, chip.L1Banks())
	m.l2BankAcc = make([]int, chip.L2Banks())
	m.spmFilled = make(map[uint32]bool)
	m.streamLine = make([]uint32, chip.NGPE())
	m.streamValid = make([]bool, chip.NGPE())
	m.refreshDerived()
	return m
}

// refreshDerived recomputes the cached per-configuration hot-path values.
// Must be called whenever m.cfg changes.
func (m *Machine) refreshDerived() {
	m.dvNGPE = m.chip.NGPE()
	m.dvL1Shared = m.cfg.L1Shared()
	m.dvL2Shared = m.cfg.L2Shared()
	m.dvL1SPM = m.cfg.L1IsSPM()
	m.dvPrefDeg = m.cfg.PrefetchDegree()
	m.dvDRAMCyc = int(dramLatNs * m.cfg.ClockMHz() / 1e3)
}

// Chip returns the machine's physical topology.
func (m *Machine) Chip() power.Chip { return m.chip }

// InjectPenalty adds extra pending stall cycles, folded into the next epoch
// exactly like a transition cost. The fault-injection layer uses it to model
// reconfigurations that take at a multiple of their nominal cost.
func (m *Machine) InjectPenalty(cycles float64) {
	if cycles > 0 {
		m.pendCycles += cycles
	}
}

// Bandwidth returns the off-chip bandwidth in bytes/second.
func (m *Machine) Bandwidth() float64 { return m.bw }

// Config returns the active configuration.
func (m *Machine) Config() config.Config { return m.cfg }

// TraceNNZ returns the bound trace's operand nonzero count (0 when no
// trace is bound or the kernel did not record it) — the size driver of
// format-conversion costs.
func (m *Machine) TraceNNZ() int {
	if m.trace == nil {
		return 0
	}
	return m.trace.NNZ
}

// BindTrace prepares the machine for replaying tr: in scratchpad mode it
// selects which reuse regions are SPM-resident (lowest priority value
// first) until the aggregate scratchpad capacity is exhausted.
func (m *Machine) BindTrace(tr *Trace) {
	if tr.NCores != m.chip.NGPE() {
		panic(fmt.Sprintf("sim: trace generated for %d GPEs, machine has %d", tr.NCores, m.chip.NGPE()))
	}
	m.trace = tr
	m.rebuildSPMResidency()
}

func (m *Machine) rebuildSPMResidency() {
	m.spmRanges = m.spmRanges[:0]
	if m.trace == nil || !m.cfg.L1IsSPM() {
		return
	}
	budget := uint32(m.chip.L1Banks() * m.cfg.L1CapKB() * 1024)
	regions := make([]Region, 0, len(m.trace.Regions))
	for _, r := range m.trace.Regions {
		if r.Kind == RegionReuse {
			regions = append(regions, r)
		}
	}
	sort.Slice(regions, func(i, j int) bool {
		if regions[i].Priority != regions[j].Priority {
			return regions[i].Priority < regions[j].Priority
		}
		return regions[i].Lo < regions[j].Lo
	})
	for _, r := range regions {
		if budget == 0 {
			break
		}
		sz := r.Hi - r.Lo
		if sz > budget {
			r.Hi = r.Lo + budget
			sz = budget
		}
		budget -= sz
		m.spmRanges = append(m.spmRanges, r)
	}
	sort.Slice(m.spmRanges, func(i, j int) bool { return m.spmRanges[i].Lo < m.spmRanges[j].Lo })
}

// spmResident reports whether addr falls in an SPM-pinned range.
func (m *Machine) spmResident(addr uint32) bool {
	lo, hi := 0, len(m.spmRanges)
	for lo < hi {
		mid := (lo + hi) / 2
		if addr >= m.spmRanges[mid].Hi {
			lo = mid + 1
		} else if addr < m.spmRanges[mid].Lo {
			hi = mid
		} else {
			return true
		}
	}
	return false
}

// l2Access routes one access to the L2 layer from a tile, returning the
// latency charged to the requester. Misses fetch from DRAM; dirty victims
// write back. store marks full-line writebacks from L1 (no fill read).
//
// In shared mode lines interleave across banks on the low line bits; the
// bank then indexes its sets on the remaining (bank-local) bits so the full
// set space is used. In private mode a tile uses its own bank: every core a
// trace can name (the GPEs and one LCP per tile) has a tile below the bank
// count.
func (m *Machine) l2Access(tile int, lineAddr uint32, store bool, pc uint16) int {
	bank, local, lat := tile, lineAddr, latL2Private
	if m.dvL2Shared {
		q, r := m.l2Banks.divmod(lineAddr)
		bank, local, lat = int(r), q, latL2Shared
	}
	m.l2BankAcc[bank]++
	m.epCnt.L2Accesses++
	m.epCnt.XbarTransfers++
	b := m.l2[bank]
	hit, _, ev := b.AccessFill(local, store)
	if hit {
		return lat
	}
	// L2 miss; AccessFill has already performed the demand fill (for a
	// store, a full-line writeback from L1 allocating without a DRAM fill).
	if store {
		if ev.Valid && ev.Dirty {
			m.writeBytes += LineSize
		}
		return lat
	}
	m.readBytes += LineSize
	if ev.Valid && ev.Dirty {
		m.writeBytes += LineSize
	}
	// L2 stride prefetcher fills from DRAM. PC 0 (writeback traffic) does
	// not train it.
	if deg := m.dvPrefDeg; deg > 0 && pc != 0 {
		for _, pa := range m.l2pf[bank].Observe(pc, local, deg) {
			if filled, pev := b.PrefetchFill(pa); filled {
				m.readBytes += LineSize
				m.epCnt.L2Accesses++
				if pev.Valid && pev.Dirty {
					m.writeBytes += LineSize
				}
			}
		}
	}
	return lat + m.dvDRAMCyc
}

// corePC folds the requesting core into the static instruction ID so that
// interleaved per-core streams occupy distinct prefetcher table entries.
// PC 0 is reserved for non-demand traffic (writebacks), which must not
// train the prefetchers.
func corePC(pc uint16, core uint8) uint16 {
	if pc == 0 {
		return 0
	}
	return pc + uint16(core)*131
}

// memAccess simulates one memory event and returns the cycles charged to
// the issuing core.
func (m *Machine) memAccess(e Event) int {
	lineAddr := e.Addr / LineSize
	core := int(e.Core)
	tile := int(m.coreTile[e.Core])
	store := e.Kind.IsStore()

	// LCP accesses (bookkeeping) bypass the GPE-layer L1 and go to L2.
	if core >= m.dvNGPE {
		return 1 + m.l2Access(tile, lineAddr, store, corePC(e.PC, e.Core))
	}

	// Scratchpad mode.
	if m.dvL1SPM {
		if m.spmResident(e.Addr) {
			m.epCnt.SPMAccesses++
			if m.spmFilled[lineAddr] {
				return 1 + latL1Private
			}
			// First touch: explicit fill from L2 plus orchestration.
			m.spmFilled[lineAddr] = true
			return 1 + latL1Private + spmOrchestration + m.l2Access(tile, lineAddr, false, corePC(e.PC, e.Core))
		}
		// Non-resident data is streamed through a per-core line buffer (the
		// SPM algorithm variant stages streamed lines explicitly): repeated
		// accesses to the staged line cost one cycle; a new line is fetched
		// from L2.
		if m.streamValid[core] && m.streamLine[core] == lineAddr {
			m.epCnt.SPMAccesses++
			return 1 + latL1Private
		}
		m.streamLine[core] = lineAddr
		m.streamValid[core] = true
		return 1 + m.l2Access(tile, lineAddr, store, corePC(e.PC, e.Core))
	}

	// Cache mode. A private L1 is the core's own bank. In shared mode the
	// low line bits select one of the tile's banks (slot) and the bank
	// indexes on the remaining (bank-local) bits; global addresses of
	// bank-local lines, for writeback routing, rejoin the two.
	bank, local := core, lineAddr
	var slot uint32
	lat := latL1Private
	if m.dvL1Shared {
		local, slot = m.gpt.divmod(lineAddr)
		bank = int(m.coreL1Base[e.Core]) + int(slot)
		lat = latL1Shared
		m.epCnt.XbarTransfers++
	}
	m.bankAcc[bank]++
	m.epCnt.L1Accesses++
	b := m.l1[bank]
	hit, prefHit, ev := b.AccessFill(local, store)
	cost := 1 + lat
	if !hit {
		if ev.Valid && ev.Dirty {
			// Dirty victim written back to L2, off the critical path.
			m.epCnt.L1Accesses++
			m.l2Access(tile, m.l1Global(ev.LineAddr, slot), true, 0)
		}
		cost += m.l2Access(tile, lineAddr, false, corePC(e.PC, e.Core))
	}
	// L1 stride prefetcher observes demand accesses but only issues fills on
	// a miss or on the first hit to a prefetched line (run extension), the
	// classic policy that avoids re-issuing over resident data. The table
	// index folds in the requester so interleaved per-core streams don't
	// alias.
	if deg := m.dvPrefDeg; deg > 0 && (!hit || prefHit) {
		for _, pa := range m.l1pf[bank].Observe(corePC(e.PC, e.Core), local, deg) {
			filled, pev := b.PrefetchFill(pa)
			if !filled {
				continue
			}
			m.epCnt.L1Accesses++
			if pev.Valid && pev.Dirty {
				m.epCnt.L1Accesses++
				m.l2Access(tile, m.l1Global(pev.LineAddr, slot), true, 0)
			}
			m.l2Access(tile, m.l1Global(pa, slot), false, 0)
		}
	}
	return cost
}

// l1Global returns the global line address of a line held by a tile's L1
// bank slot: in shared mode banks hold bank-local addresses, in private
// mode global ones.
func (m *Machine) l1Global(local, slot uint32) uint32 {
	if m.dvL1Shared {
		return m.gpt.join(local, slot)
	}
	return local
}

// EpochResult is the outcome of replaying one epoch: the metrics the
// objective is computed from, the Table 2 counters the controller observes,
// and the dirty-line state the oracle needs for transition costs.
type EpochResult struct {
	Metrics  power.Metrics
	Counters Counters
	// Counts are the raw energy-relevant event totals (including any
	// pending reconfiguration work folded into this epoch), from which
	// power.EnergyBreakdown decomposes the energy.
	Counts  power.Counts
	Phase   string
	DirtyL1 int
	DirtyL2 int
}

// RunEpoch replays the trace events of ep under the current configuration
// and returns the epoch result. Any pending reconfiguration penalty from a
// preceding Reconfigure call is folded into this epoch, mirroring how the
// paper charges reconfiguration at epoch boundaries.
func (m *Machine) RunEpoch(ep EpochRange) EpochResult {
	if m.trace == nil {
		panic("sim: BindTrace before RunEpoch")
	}
	for i := range m.cyc {
		m.cyc[i] = 0
	}
	for i := range m.bankAcc {
		m.bankAcc[i] = 0
	}
	for i := range m.l2BankAcc {
		m.l2BankAcc[i] = 0
	}
	m.epCnt = power.Counts{}
	m.readBytes, m.writeBytes = 0, 0
	m.resetBankCounters()

	// Batched replay: the per-epoch aggregate (built once per trace and
	// shared across configurations) supplies the cycle and instruction
	// contributions of every non-memory event, so the loop below touches
	// only the memory events — the configuration-dependent part of the
	// epoch. Arithmetic is commutative per core, so the result is identical
	// to the original event-by-event walk.
	agg := m.trace.epochAggFor(ep)
	for i, n := range agg.baseCyc {
		m.cyc[i] += n
	}
	events := m.trace.Events
	for _, idx := range agg.mem {
		e := events[idx]
		m.cyc[e.Core] += int64(m.memAccess(e))
	}
	m.gpeInstr, m.lcpInstr, m.gpeFP = agg.gpeInstr, agg.lcpInstr, agg.gpeFP
	m.epCnt.GPEInstrs = agg.gpeInstr
	m.epCnt.LCPInstrs = agg.lcpInstr

	// Crossbar contention: per-bank access imbalance within each arbitration
	// domain approximates collision counts (hot banks serialize requesters).
	l1Cont := 0
	if m.cfg.L1Shared() {
		l1Cont = contentionOf(m.bankAcc, m.chip.GPEsPerTile)
	}
	l2Cont := 0
	if m.cfg.L2Shared() && m.chip.L2Banks() > 1 {
		l2Cont = contentionOf(m.l2BankAcc, m.chip.L2Banks())
	}
	m.epCnt.XbarConts = l1Cont + l2Cont

	var maxCyc int64
	for _, c := range m.cyc {
		if c > maxCyc {
			maxCyc = c
		}
	}
	active := int64(m.chip.NGPE())
	cycles := float64(maxCyc) + float64(l1Cont+l2Cont)/float64(active) + telemetryCycles + m.pendCycles

	f := m.cfg.ClockHz()
	tCompute := cycles / f
	tMem := float64(m.readBytes+m.writeBytes) / m.bw
	// Imperfect overlap of compute and memory: the in-order GPEs hide only
	// part of whichever side is not the bottleneck, so the epoch costs the
	// roofline max plus a fraction of the other component. This keeps DVFS
	// on memory-bound phases cheap (not free) — matching the paper's
	// "negligible" but nonzero performance loss.
	t := tCompute
	lo := tMem
	if tMem > t {
		t, lo = tMem, tCompute
	}
	t += overlapLeak * lo

	m.epCnt.DRAMReadBytes = m.readBytes
	m.epCnt.DRAMWriteBytes = m.writeBytes
	cnt := m.epCnt
	cnt.Add(m.pendCounts)
	m.pendCycles = 0
	m.pendCounts = power.Counts{}

	energy := power.Energy(m.chip, m.cfg, cnt, t)
	if m.mx != nil {
		m.mx.recordEpoch(cycles, t, cnt, l1Cont+l2Cont, energy)
	}

	res := EpochResult{
		Metrics: power.Metrics{TimeSec: t, EnergyJ: energy, FPOps: float64(ep.FPOps)},
		Counts:  cnt,
		Phase:   ep.Phase,
	}
	res.Counters = m.buildCounters(cycles, t, cnt, l1Cont, l2Cont)
	for _, b := range m.l1 {
		res.DirtyL1 += b.DirtyLines()
	}
	for _, b := range m.l2 {
		res.DirtyL2 += b.DirtyLines()
	}
	return res
}

// contentionOf estimates collisions from per-bank access imbalance: any
// accesses a bank receives beyond its fair share of the domain traffic had
// to be serialized against another requester.
func contentionOf(bankAcc []int, requesters int) int {
	total := 0
	for _, a := range bankAcc {
		total += a
	}
	if total == 0 || len(bankAcc) == 0 {
		return 0
	}
	fair := total / len(bankAcc)
	cont := 0
	for _, a := range bankAcc {
		if a > fair {
			cont += a - fair
		}
	}
	// Scale by how many requesters compete in the domain.
	return cont * (requesters - 1) / requesters
}

// resetBankCounters zeroes every bank's per-epoch counters before an epoch
// replays, as the hardware resets its counters when they are queried, so
// after the epoch they hold that epoch's counts alone.
func (m *Machine) resetBankCounters() {
	for _, b := range m.l1 {
		b.ResetCounters()
	}
	for _, b := range m.l2 {
		b.ResetCounters()
	}
}

func sumBanks(banks []*Bank) bankTotals {
	var t bankTotals
	for _, b := range banks {
		t.acc += b.Accesses
		t.miss += b.Misses
		t.pref += b.Prefetches
		t.useful += b.PrefUseful
	}
	return t
}

func occupancyOf(banks []*Bank) float64 {
	s := 0.0
	for _, b := range banks {
		s += b.Occupancy()
	}
	return s / float64(len(banks))
}
