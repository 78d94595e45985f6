package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"sparseadapt/internal/config"
	"sparseadapt/internal/power"
)

// This file keeps the replay logic Machine started from as a reference: an
// event-by-event walk over each epoch (no epochAgg batching, one cycle per
// non-memory event), integer division for every tile, bank, set and tag
// split, one bool per line state bit, and separate probe and fill calls
// where Machine fuses them. Machine must replay every trace, configuration
// and reconfiguration sequence bit for bit as this reference does.

// refLine is one cache line with its state bits unpacked.
type refLine struct {
	tag        uint32
	lru        uint32
	valid      bool
	dirty      bool
	prefetched bool
}

// refBank is the reference R-DCache bank: set-associative, LRU, dirty
// bits, div/mod set split for every capacity.
type refBank struct {
	sets   int
	lines  []refLine
	tick   uint32
	nValid int
	nDirty int

	accesses, misses, prefetches, prefUseful int
}

func newRefBank(capacityBytes int) *refBank {
	b := &refBank{}
	b.init(capacityBytes)
	return b
}

func (b *refBank) init(capacityBytes int) {
	b.sets = max(capacityBytes/(LineSize*Ways), 1)
	b.lines = make([]refLine, b.sets*Ways)
	b.tick = 0
	b.nValid, b.nDirty = 0, 0
}

func (b *refBank) capacityBytes() int { return b.sets * Ways * LineSize }

func (b *refBank) set(lineAddr uint32) ([]refLine, uint32) {
	s := int(lineAddr % uint32(b.sets))
	return b.lines[s*Ways : s*Ways+Ways], lineAddr / uint32(b.sets)
}

func (b *refBank) lookup(lineAddr uint32) bool {
	ws, tag := b.set(lineAddr)
	for i := range ws {
		if ws[i].valid && ws[i].tag == tag {
			return true
		}
	}
	return false
}

func (b *refBank) access(lineAddr uint32, store bool) (hit, prefHit bool) {
	b.accesses++
	b.tick++
	ws, tag := b.set(lineAddr)
	for i := range ws {
		if ws[i].valid && ws[i].tag == tag {
			if ws[i].prefetched {
				b.prefUseful++
				ws[i].prefetched = false
				prefHit = true
			}
			ws[i].lru = b.tick
			if store && !ws[i].dirty {
				ws[i].dirty = true
				b.nDirty++
			}
			return true, prefHit
		}
	}
	b.misses++
	return false, false
}

func (b *refBank) insert(lineAddr uint32, dirty, prefetched bool) Evicted {
	b.tick++
	ws, tag := b.set(lineAddr)
	for i := range ws {
		if ws[i].valid && ws[i].tag == tag {
			if dirty && !ws[i].dirty {
				ws[i].dirty = true
				b.nDirty++
			}
			ws[i].lru = b.tick
			return Evicted{}
		}
	}
	victim := 0
	for i := 1; i < len(ws); i++ {
		if !ws[victim].valid {
			break
		}
		if !ws[i].valid || ws[i].lru < ws[victim].lru {
			victim = i
		}
	}
	ev := Evicted{}
	v := &ws[victim]
	if v.valid {
		ev = Evicted{LineAddr: v.tag*uint32(b.sets) + lineAddr%uint32(b.sets), Dirty: v.dirty, Valid: true}
		if v.dirty {
			b.nDirty--
		}
	} else {
		b.nValid++
	}
	if dirty {
		b.nDirty++
	}
	*v = refLine{tag: tag, lru: b.tick, valid: true, dirty: dirty, prefetched: prefetched}
	if prefetched {
		b.prefetches++
	}
	return ev
}

func (b *refBank) occupancy() float64 { return float64(b.nValid) / float64(len(b.lines)) }

func (b *refBank) flush() []uint32 {
	var dirty []uint32
	for s := 0; s < b.sets; s++ {
		for w := 0; w < Ways; w++ {
			l := &b.lines[s*Ways+w]
			if l.valid && l.dirty {
				dirty = append(dirty, l.tag*uint32(b.sets)+uint32(s))
			}
			l.valid = false
		}
	}
	b.nValid, b.nDirty = 0, 0
	return dirty
}

func (b *refBank) resize(capacityBytes int) (dirtyWB []uint32) {
	if capacityBytes == b.capacityBytes() {
		return nil
	}
	old, oldSets := b.lines, b.sets
	b.init(capacityBytes)
	for s := 0; s < oldSets; s++ {
		for w := 0; w < Ways; w++ {
			l := old[s*Ways+w]
			if !l.valid {
				continue
			}
			if ev := b.insert(l.tag*uint32(oldSets)+uint32(s), l.dirty, false); ev.Valid && ev.Dirty {
				dirtyWB = append(dirtyWB, ev.LineAddr)
			}
		}
	}
	return dirtyWB
}

// refStats counts the cache events a differential case exercised, so the
// tests can assert their traces reach every path they mean to cover.
type refStats struct {
	evictions, dirtyWB, prefFills, spmFills, streamHits int
}

// referenceMachine replays epochs the way Machine did before its hot loop
// was batched and made division-free.
type referenceMachine struct {
	chip power.Chip
	bw   float64
	cfg  config.Config

	l1, l2     []*refBank
	l1pf, l2pf []*Prefetcher

	spmRanges   []Region
	spmFilled   map[uint32]bool
	streamLine  []uint32
	streamValid []bool
	trace       *Trace

	pendCycles float64
	pendCounts power.Counts

	cyc                       []int64
	bankAcc, l2BankAcc        []int
	epCnt                     power.Counts
	gpeInstr, lcpInstr, gpeFP int
	readBytes, writeBytes     int

	stats refStats
}

func newReferenceMachine(chip power.Chip, bw float64, cfg config.Config) *referenceMachine {
	m := &referenceMachine{chip: chip, bw: bw, cfg: cfg}
	for i := 0; i < chip.L1Banks(); i++ {
		m.l1 = append(m.l1, newRefBank(cfg.L1CapKB()*1024))
		m.l1pf = append(m.l1pf, &Prefetcher{})
	}
	for i := 0; i < chip.L2Banks(); i++ {
		m.l2 = append(m.l2, newRefBank(cfg.L2CapKB()*1024))
		m.l2pf = append(m.l2pf, &Prefetcher{})
	}
	m.cyc = make([]int64, chip.NGPE()+chip.Tiles)
	m.bankAcc = make([]int, chip.L1Banks())
	m.l2BankAcc = make([]int, chip.L2Banks())
	m.spmFilled = map[uint32]bool{}
	m.streamLine = make([]uint32, chip.NGPE())
	m.streamValid = make([]bool, chip.NGPE())
	return m
}

func (m *referenceMachine) bindTrace(tr *Trace) {
	m.trace = tr
	m.rebuildSPMResidency()
}

func (m *referenceMachine) injectPenalty(cycles float64) {
	if cycles > 0 {
		m.pendCycles += cycles
	}
}

func (m *referenceMachine) rebuildSPMResidency() {
	m.spmRanges = m.spmRanges[:0]
	if m.trace == nil || !m.cfg.L1IsSPM() {
		return
	}
	budget := uint32(m.chip.L1Banks() * m.cfg.L1CapKB() * 1024)
	var regions []Region
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
}

func (m *referenceMachine) spmResident(addr uint32) bool {
	for _, r := range m.spmRanges {
		if addr >= r.Lo && addr < r.Hi {
			return true
		}
	}
	return false
}

func (m *referenceMachine) tileOf(core int) int {
	if nGPE := m.chip.NGPE(); core >= nGPE {
		return core - nGPE
	}
	return core / m.chip.GPEsPerTile
}

func (m *referenceMachine) dramCycles() int { return int(dramLatNs * m.cfg.ClockMHz() / 1e3) }

func (m *referenceMachine) l2Access(tile int, lineAddr uint32, store bool, pc uint16) int {
	nb := m.chip.L2Banks()
	bank, local, lat := tile%nb, lineAddr, latL2Private
	if m.cfg.L2Shared() {
		bank, local, lat = int(lineAddr%uint32(nb)), lineAddr/uint32(nb), latL2Shared
	}
	m.l2BankAcc[bank]++
	m.epCnt.L2Accesses++
	m.epCnt.XbarTransfers++
	b := m.l2[bank]
	if hit, _ := b.access(local, store); hit {
		return lat
	}
	ev := b.insert(local, store, false)
	m.countEviction(ev)
	if !store {
		m.readBytes += LineSize
	}
	if ev.Valid && ev.Dirty {
		m.writeBytes += LineSize
	}
	if store {
		return lat
	}
	if deg := m.cfg.PrefetchDegree(); deg > 0 && pc != 0 {
		for _, pa := range m.l2pf[bank].Observe(pc, local, deg) {
			if b.lookup(pa) {
				continue
			}
			m.stats.prefFills++
			m.readBytes += LineSize
			m.epCnt.L2Accesses++
			pev := b.insert(pa, false, true)
			m.countEviction(pev)
			if pev.Valid && pev.Dirty {
				m.writeBytes += LineSize
			}
		}
	}
	return lat + m.dramCycles()
}

func (m *referenceMachine) countEviction(ev Evicted) {
	if ev.Valid {
		m.stats.evictions++
		if ev.Dirty {
			m.stats.dirtyWB++
		}
	}
}

func (m *referenceMachine) memAccess(e Event) int {
	lineAddr := e.Addr / LineSize
	core := int(e.Core)
	tile := m.tileOf(core)
	store := e.Kind.IsStore()
	pc := corePC(e.PC, e.Core)

	if core >= m.chip.NGPE() {
		return 1 + m.l2Access(tile, lineAddr, store, pc)
	}
	if m.cfg.L1IsSPM() {
		if m.spmResident(e.Addr) {
			m.epCnt.SPMAccesses++
			if m.spmFilled[lineAddr] {
				return 1 + latL1Private
			}
			m.stats.spmFills++
			m.spmFilled[lineAddr] = true
			return 1 + latL1Private + spmOrchestration + m.l2Access(tile, lineAddr, false, pc)
		}
		if m.streamValid[core] && m.streamLine[core] == lineAddr {
			m.stats.streamHits++
			m.epCnt.SPMAccesses++
			return 1 + latL1Private
		}
		m.streamLine[core] = lineAddr
		m.streamValid[core] = true
		return 1 + m.l2Access(tile, lineAddr, store, pc)
	}

	g := m.chip.GPEsPerTile
	shared := m.cfg.L1Shared()
	bank, local := core, lineAddr
	if shared {
		bank = tile*g + int(lineAddr)%g
		local = lineAddr / uint32(g)
	}
	toGlobal := func(l uint32) uint32 {
		if shared {
			return l*uint32(g) + uint32(bank%g)
		}
		return l
	}
	m.bankAcc[bank]++
	m.epCnt.L1Accesses++
	lat := latL1Private
	if shared {
		lat = latL1Shared
		m.epCnt.XbarTransfers++
	}
	b := m.l1[bank]
	hit, prefHit := b.access(local, store)
	cost := 1 + lat
	if !hit {
		ev := b.insert(local, store, false)
		m.countEviction(ev)
		if ev.Valid && ev.Dirty {
			m.epCnt.L1Accesses++
			m.l2Access(tile, toGlobal(ev.LineAddr), true, 0)
		}
		cost += m.l2Access(tile, lineAddr, false, pc)
	}
	if deg := m.cfg.PrefetchDegree(); deg > 0 && (!hit || prefHit) {
		for _, pa := range m.l1pf[bank].Observe(pc, local, deg) {
			if b.lookup(pa) {
				continue
			}
			m.stats.prefFills++
			m.epCnt.L1Accesses++
			pev := b.insert(pa, false, true)
			m.countEviction(pev)
			if pev.Valid && pev.Dirty {
				m.epCnt.L1Accesses++
				m.l2Access(tile, toGlobal(pev.LineAddr), true, 0)
			}
			m.l2Access(tile, toGlobal(pa), false, 0)
		}
	}
	return cost
}

func (m *referenceMachine) runEpoch(ep EpochRange) EpochResult {
	clear(m.cyc)
	clear(m.bankAcc)
	clear(m.l2BankAcc)
	m.epCnt = power.Counts{}
	m.readBytes, m.writeBytes = 0, 0
	m.gpeInstr, m.lcpInstr, m.gpeFP = 0, 0, 0
	for _, b := range append(append([]*refBank(nil), m.l1...), m.l2...) {
		b.accesses, b.misses, b.prefetches, b.prefUseful = 0, 0, 0, 0
	}

	nGPE := m.chip.NGPE()
	for _, e := range m.trace.Events[ep.Start:ep.End] {
		// A KInt event is a run of Addr integer operations of one cycle
		// each; every other event is one operation.
		ops := 1
		if e.Kind == KInt {
			ops = int(e.Addr)
		}
		if int(e.Core) < nGPE {
			m.gpeInstr += ops
			if e.Kind.IsFP() {
				m.gpeFP++
			}
		} else {
			m.lcpInstr += ops
		}
		if e.Kind.IsMem() {
			m.cyc[e.Core] += int64(m.memAccess(e))
		} else {
			m.cyc[e.Core] += int64(ops)
		}
	}
	m.epCnt.GPEInstrs = m.gpeInstr
	m.epCnt.LCPInstrs = m.lcpInstr

	l1Cont, l2Cont := 0, 0
	if m.cfg.L1Shared() {
		l1Cont = contentionOf(m.bankAcc, m.chip.GPEsPerTile)
	}
	if m.cfg.L2Shared() && m.chip.L2Banks() > 1 {
		l2Cont = contentionOf(m.l2BankAcc, m.chip.L2Banks())
	}
	m.epCnt.XbarConts = l1Cont + l2Cont

	var maxCyc int64
	for _, c := range m.cyc {
		maxCyc = max(maxCyc, c)
	}
	cycles := float64(maxCyc) + float64(l1Cont+l2Cont)/float64(int64(nGPE)) + telemetryCycles + m.pendCycles
	tCompute := cycles / m.cfg.ClockHz()
	tMem := float64(m.readBytes+m.writeBytes) / m.bw
	t, lo := tCompute, tMem
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

	res := EpochResult{
		Metrics: power.Metrics{TimeSec: t, EnergyJ: power.Energy(m.chip, m.cfg, cnt, t), FPOps: float64(ep.FPOps)},
		Counts:  cnt,
		Phase:   ep.Phase,
	}
	res.Counters = m.buildCounters(cycles, t, cnt, l1Cont, l2Cont)
	for _, b := range m.l1 {
		res.DirtyL1 += b.nDirty
	}
	for _, b := range m.l2 {
		res.DirtyL2 += b.nDirty
	}
	return res
}

func (m *referenceMachine) buildCounters(cycles, t float64, cnt power.Counts, l1Cont, l2Cont int) Counters {
	sum := func(banks []*refBank) (acc, miss, pref int, occ float64) {
		for _, b := range banks {
			acc += b.accesses
			miss += b.misses
			pref += b.prefetches
			occ += b.occupancy()
		}
		return acc, miss, pref, occ / float64(len(banks))
	}
	l1Acc, l1Miss, l1Pref, l1Occ := sum(m.l1)
	l2Acc, l2Miss, l2Pref, l2Occ := sum(m.l2)
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	elapsed := max(t*m.cfg.ClockHz(), cycles)
	nGPE := float64(m.chip.NGPE())
	c := Counters{
		L1AccessRate: div(float64(l1Acc), elapsed),
		L1Occupancy:  l1Occ,
		L1MissRate:   div(float64(l1Miss), float64(l1Acc)),
		L1PrefRatio:  div(float64(l1Pref), float64(l1Acc)),
		L1CapKB:      float64(m.cfg.L1CapKB()),
		L2AccessRate: div(float64(l2Acc), elapsed),
		L2Occupancy:  l2Occ,
		L2MissRate:   div(float64(l2Miss), float64(l2Acc)),
		L2PrefRatio:  div(float64(l2Pref), float64(l2Acc)),
		L2CapKB:      float64(m.cfg.L2CapKB()),
		XbarL1Cont:   div(float64(l1Cont), float64(l1Acc)),
		XbarL2Cont:   div(float64(l2Cont), float64(l2Acc)),
		GPEIPC:       div(float64(m.gpeInstr), elapsed*nGPE),
		GPEFPIPC:     div(float64(m.gpeFP), elapsed*nGPE),
		LCPIPC:       div(float64(m.lcpInstr), elapsed*float64(m.chip.Tiles)),
		ClockMHz:     m.cfg.ClockMHz(),
		MemReadUtil:  div(float64(cnt.DRAMReadBytes), m.bw*t),
		MemWriteUtil: div(float64(cnt.DRAMWriteBytes), m.bw*t),
	}
	if m.cfg.L1IsSPM() {
		c.L1AccessRate = div(float64(cnt.SPMAccesses), elapsed)
		c.L1MissRate = 0
		c.L1Occupancy = min(div(float64(len(m.spmFilled)*LineSize),
			float64(m.chip.L1Banks()*m.cfg.L1CapKB()*1024)), 1)
	}
	return c
}

// flushL1ToL2 writes every dirty L1 line back to the L2 bank the new
// sharing mode routes it to.
func (m *referenceMachine) flushL1ToL2(to config.Config, rc *ReconfigCost, cnt *power.Counts) {
	for _, b := range m.l1 {
		for _, lineAddr := range b.flush() {
			rc.L1Flushed++
			cnt.L1Accesses++
			bank := 0
			if to.L2Shared() {
				bank = int(lineAddr) % m.chip.L2Banks()
			}
			ev := m.l2[bank].insert(lineAddr, true, false)
			cnt.L2Accesses++
			if ev.Valid && ev.Dirty {
				rc.DRAMWrites += LineSize
			}
		}
	}
	rc.Cycles += float64(rc.L1Flushed) * flushCyclesPerLine
}

// drainSPM charges the scratchpad flush: half the filled lines carry data.
func (m *referenceMachine) drainSPM(rc *ReconfigCost, cnt *power.Counts) {
	n := len(m.spmFilled)
	rc.L1Flushed = n / 2
	cnt.SPMAccesses += n
	cnt.L2Accesses += n / 2
	rc.Cycles += float64(n/2) * flushCyclesPerLine
	m.spmFilled = map[uint32]bool{}
}

func (m *referenceMachine) flushL2(rc *ReconfigCost, cnt *power.Counts) {
	for _, b := range m.l2 {
		dirty := b.flush()
		rc.L2Flushed += len(dirty)
		cnt.L2Accesses += len(dirty)
		rc.DRAMWrites += len(dirty) * LineSize
	}
	rc.Cycles += float64(rc.L2Flushed) * flushCyclesPerLine
}

func (m *referenceMachine) reconfigure(to config.Config) (ReconfigCost, error) {
	tr := config.Classify(m.cfg, to)
	if tr.Coarse {
		return ReconfigCost{}, fmt.Errorf("sim: coarse parameter change %v requires recompilation", tr.Changed)
	}
	var rc ReconfigCost
	rc.Cycles = float64(tr.SuperFineChanges) * config.SuperFineCycles
	if tr.Algorithmic {
		nnz := 0
		if m.trace != nil {
			nnz = m.trace.NNZ
		}
		rc.ConvCycles = tr.ConversionCycles(nnz)
		rc.Cycles += rc.ConvCycles
	}
	var cnt power.Counts
	if tr.FlushL1 && !m.cfg.L1IsSPM() {
		m.flushL1ToL2(to, &rc, &cnt)
	}
	if tr.FlushL1 && m.cfg.L1IsSPM() {
		m.drainSPM(&rc, &cnt)
	}
	if tr.FlushL2 {
		m.flushL2(&rc, &cnt)
	}
	for _, b := range m.l1 {
		cnt.L2Accesses += len(b.resize(to.L1CapKB() * 1024))
	}
	for _, b := range m.l2 {
		rc.DRAMWrites += len(b.resize(to.L2CapKB()*1024)) * LineSize
	}
	if m.cfg.PrefetchDegree() != to.PrefetchDegree() {
		m.resetPrefetchers()
	}
	cnt.DRAMWriteBytes = rc.DRAMWrites
	m.cfg = to
	m.rebuildSPMResidency()
	m.pendCycles += rc.Cycles
	m.pendCounts.Add(cnt)
	return rc, nil
}

func (m *referenceMachine) resetPrefetchers() {
	for _, p := range append(append([]*Prefetcher(nil), m.l1pf...), m.l2pf...) {
		p.Reset()
	}
}

func (m *referenceMachine) contextSwitch(to config.Config) (ReconfigCost, error) {
	tr := config.Classify(m.cfg, to)
	if tr.Coarse {
		return ReconfigCost{}, fmt.Errorf("sim: coarse parameter change %v requires recompilation", tr.Changed)
	}
	var rc ReconfigCost
	rc.Cycles = float64(tr.SuperFineChanges) * config.SuperFineCycles
	var cnt power.Counts
	if m.cfg.L1IsSPM() {
		m.drainSPM(&rc, &cnt)
	} else {
		m.flushL1ToL2(to, &rc, &cnt)
	}
	m.spmFilled = map[uint32]bool{}
	m.flushL2(&rc, &cnt)
	for _, b := range m.l1 {
		b.resize(to.L1CapKB() * 1024)
	}
	for _, b := range m.l2 {
		b.resize(to.L2CapKB() * 1024)
	}
	m.resetPrefetchers()
	clear(m.streamValid)
	rc.Cycles += m.pendCycles
	cnt.Add(m.pendCounts)
	m.pendCycles = 0
	m.pendCounts = power.Counts{}
	cnt.DRAMWriteBytes += rc.DRAMWrites
	m.cfg = to
	m.rebuildSPMResidency()
	return rc, nil
}

// diffEpochResult reports the first field where got and want differ, with
// floats compared by their bits.
func diffEpochResult(got, want EpochResult) error {
	floats := func(name string, g, w float64) error {
		if math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("%s: got %v (%#x), want %v (%#x)", name, g, math.Float64bits(g), w, math.Float64bits(w))
		}
		return nil
	}
	if err := floats("Metrics.TimeSec", got.Metrics.TimeSec, want.Metrics.TimeSec); err != nil {
		return err
	}
	if err := floats("Metrics.EnergyJ", got.Metrics.EnergyJ, want.Metrics.EnergyJ); err != nil {
		return err
	}
	if err := floats("Metrics.FPOps", got.Metrics.FPOps, want.Metrics.FPOps); err != nil {
		return err
	}
	gf, wf := got.Counters.Features(), want.Counters.Features()
	for i, name := range FeatureNames() {
		if err := floats("Counters."+name, gf[i], wf[i]); err != nil {
			return err
		}
	}
	if got.Counts != want.Counts {
		return fmt.Errorf("Counts: got %+v, want %+v", got.Counts, want.Counts)
	}
	if got.Phase != want.Phase || got.DirtyL1 != want.DirtyL1 || got.DirtyL2 != want.DirtyL2 {
		return fmt.Errorf("phase/dirty: got %q %d/%d, want %q %d/%d",
			got.Phase, got.DirtyL1, got.DirtyL2, want.Phase, want.DirtyL1, want.DirtyL2)
	}
	return nil
}

// diffReconfig compares two transition outcomes, error text included.
func diffReconfig(got ReconfigCost, gotErr error, want ReconfigCost, wantErr error) error {
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		return fmt.Errorf("error: got %v, want %v", gotErr, wantErr)
	}
	if math.Float64bits(got.Cycles) != math.Float64bits(want.Cycles) ||
		math.Float64bits(got.ConvCycles) != math.Float64bits(want.ConvCycles) ||
		got.L1Flushed != want.L1Flushed || got.L2Flushed != want.L2Flushed || got.DRAMWrites != want.DRAMWrites {
		return fmt.Errorf("cost: got %+v, want %+v", got, want)
	}
	return nil
}

// refChips covers the evaluated 2×8 chip and its relatives: one tile,
// sixteen GPEs per tile, a non-power-of-two GPEs-per-tile count, three
// tiles (a non-power-of-two L2 bank count) and one GPE per tile.
var refChips = []power.Chip{
	{Tiles: 2, GPEsPerTile: 8},
	{Tiles: 1, GPEsPerTile: 8},
	{Tiles: 2, GPEsPerTile: 16},
	{Tiles: 2, GPEsPerTile: 6},
	{Tiles: 3, GPEsPerTile: 4},
	{Tiles: 3, GPEsPerTile: 5},
	{Tiles: 4, GPEsPerTile: 1},
}

// refConfigs returns the named configurations and, from each, every value
// of every hardware parameter one at a time.
func refConfigs() []config.Config {
	seen := map[config.Config]bool{}
	var out []config.Config
	for _, base := range []config.Config{config.Baseline, config.BestAvgCache, config.BestAvgSPM, config.MaxCfg, config.MaxCfgSPM} {
		for p := config.L1Type; p <= config.Prefetch; p++ {
			for v := 0; v < config.Cardinality(p); v++ {
				c := base
				c[p] = v
				if !seen[c] {
					seen[c] = true
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// randomConfig draws a configuration uniformly from the whole space.
func randomConfig(rng *rand.Rand) config.Config {
	return config.FromIndex(rng.Intn(config.SpaceSize()))
}

// refTrace builds a seeded random trace for chip. Per-core strided streams
// train the prefetchers to confidence; reads and writes scattered over a
// region many times one 4-kB bank evict dirty lines; two reuse regions (the
// second larger than the smallest scratchpad) exercise SPM residency and
// its truncation; LCPs touch a bookkeeping region; ALU runs pad the epochs.
func refTrace(rng *rand.Rand, chip power.Chip, n int) *Trace {
	nGPE := chip.NGPE()
	b := NewBuilder(nGPE, chip.Tiles)
	stream := b.AllocRegion("stream", 512<<10, RegionStream, 3)
	scatter := b.AllocRegion("scatter", 96<<10, RegionStream, 3)
	hot := b.AllocRegion("hot", 12<<10, RegionReuse, 0)
	acc := b.AllocRegion("acc", 160<<10, RegionReuse, 1)
	book := b.AllocRegion("book", 8<<10, RegionBookkeep, 2)
	cursor := make([]uint32, nGPE)
	stride := make([]uint32, nGPE)
	for g := range cursor {
		cursor[g] = uint32(rng.Intn(int(stream.Hi - stream.Lo)))
		stride[g] = uint32(8 << rng.Intn(5))
	}
	in := func(r Region) uint32 { return r.Lo + uint32(rng.Intn(int(r.Hi-r.Lo)))&^7 }
	phases := []string{"multiply", "merge", "scan"}
	for i := 0; i < n; i++ {
		if i%(n/3+1) == 0 {
			b.Phase(phases[i/(n/3+1)%len(phases)])
		}
		if rng.Intn(12) == 0 {
			b.On(nGPE + rng.Intn(chip.Tiles))
			if rng.Intn(2) == 0 {
				b.StoreI(40, in(book))
			} else {
				b.LoadI(41, in(book))
			}
			b.Int(1 + rng.Intn(3))
			continue
		}
		g := rng.Intn(nGPE)
		b.On(g)
		switch rng.Intn(8) {
		case 0, 1, 2:
			b.LoadF(uint16(1+g%3), stream.Lo+cursor[g]%(stream.Hi-stream.Lo))
			cursor[g] += stride[g]
		case 3:
			b.StoreF(4, in(scatter))
		case 4:
			b.LoadI(5, in(scatter))
		case 5:
			b.LoadF(6, in(hot))
		case 6:
			if rng.Intn(2) == 0 {
				b.StoreF(7, in(acc))
			} else {
				b.LoadF(8, in(acc))
			}
		default:
			b.FP(1 + rng.Intn(4))
			b.Int(rng.Intn(3))
		}
	}
	return b.Build()
}

// diffBank compares a bank with the reference bank: geometry, tick, line
// counts, counters and every valid line's tag, state bits and LRU tick.
func diffBank(b *Bank, ref *refBank) error {
	if b.CapacityBytes() != ref.capacityBytes() || b.tick != ref.tick || b.nValid != ref.nValid || b.nDirty != ref.nDirty {
		return fmt.Errorf("bank: capacity/tick/valid/dirty %d/%d/%d/%d, want %d/%d/%d/%d",
			b.CapacityBytes(), b.tick, b.nValid, b.nDirty, ref.capacityBytes(), ref.tick, ref.nValid, ref.nDirty)
	}
	if got, want := [4]int{b.Accesses, b.Misses, b.Prefetches, b.PrefUseful}, [4]int{ref.accesses, ref.misses, ref.prefetches, ref.prefUseful}; got != want {
		return fmt.Errorf("bank counters %v, want %v", got, want)
	}
	for i, r := range ref.lines {
		l := b.lines[i/Ways][i%Ways]
		got := refLine{tag: l.tag & tagMask, lru: l.lru, valid: l.tag&lineValid != 0, dirty: l.tag&lineDirty != 0, prefetched: l.tag&linePrefetched != 0}
		if got.valid != r.valid || r.valid && got != r {
			return fmt.Errorf("line %d: %+v, want %+v", i, got, r)
		}
	}
	return nil
}

// TestBankMatchesReference drives Bank and the reference bank through the
// same seeded operation sequences (fused and split demand accesses,
// inserts, prefetch fills, probes, flushes and resizes) at power-of-two and
// other set counts, over addresses up to the top of the 26-bit tag range,
// and requires every result and the whole bank state to match after every
// operation: PrefetchFill must leave a resident line's set and the tick
// exactly as a Lookup does.
func TestBankMatchesReference(t *testing.T) {
	caps := []int{LineSize * Ways, 1 << 10, 3 << 10, 4 << 10, 5 << 10, 12 << 10, 32 << 10}
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := caps[int(seed)%len(caps)]
		b, ref := NewBank(c), newRefBank(c)
		span := 8 + rng.Intn(6*c/LineSize)
		base := uint32(0)
		if seed%3 == 0 {
			base = 1<<26 - uint32(span)
		}
		for i := 0; i < 4000; i++ {
			a := base + uint32(rng.Intn(span))
			store, flag := rng.Intn(2) == 0, rng.Intn(2) == 0
			what := ""
			switch op := rng.Intn(200); {
			case op < 70:
				what = "AccessFill"
				hit, prefHit, ev := b.AccessFill(a, store)
				wantHit, wantPref := ref.access(a, store)
				var wantEv Evicted
				if !wantHit {
					wantEv = ref.insert(a, store, false)
				}
				if hit != wantHit || prefHit != wantPref || ev != wantEv {
					t.Fatalf("seed %d op %d AccessFill(%d): %v %v %+v, want %v %v %+v", seed, i, a, hit, prefHit, ev, wantHit, wantPref, wantEv)
				}
			case op < 90:
				what = "Access"
				hit, prefHit := b.Access(a, store)
				wantHit, wantPref := ref.access(a, store)
				if hit != wantHit || prefHit != wantPref {
					t.Fatalf("seed %d op %d Access(%d): %v %v, want %v %v", seed, i, a, hit, prefHit, wantHit, wantPref)
				}
			case op < 140:
				what = "PrefetchFill"
				filled, ev := b.PrefetchFill(a)
				var wantEv Evicted
				wantFilled := !ref.lookup(a)
				if wantFilled {
					wantEv = ref.insert(a, false, true)
				}
				if filled != wantFilled || ev != wantEv {
					t.Fatalf("seed %d op %d PrefetchFill(%d): %v %+v, want %v %+v", seed, i, a, filled, ev, wantFilled, wantEv)
				}
			case op < 170:
				what = "Insert"
				if ev, want := b.Insert(a, store, flag), ref.insert(a, store, flag); ev != want {
					t.Fatalf("seed %d op %d Insert(%d): %+v, want %+v", seed, i, a, ev, want)
				}
			case op < 198:
				what = "Lookup"
				if got, want := b.Lookup(a), ref.lookup(a); got != want {
					t.Fatalf("seed %d op %d Lookup(%d): %v, want %v", seed, i, a, got, want)
				}
			case op < 199:
				what = "Flush"
				if got, want := b.Flush(), ref.flush(); !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d Flush: %v, want %v", seed, i, got, want)
				}
			default:
				what = "Resize"
				to := caps[rng.Intn(len(caps))]
				if got, want := b.Resize(to), ref.resize(to); !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d Resize(%d): %v, want %v", seed, i, to, got, want)
				}
			}
			if err := diffBank(b, ref); err != nil {
				t.Fatalf("seed %d op %d after %s(%d): %v", seed, i, what, a, err)
			}
		}
	}
}

// checkEpoch replays ep on both machines and fails on the first difference.
func checkEpoch(t testing.TB, what string, m *Machine, ref *referenceMachine, ep EpochRange) {
	t.Helper()
	got, want := m.RunEpoch(ep), ref.runEpoch(ep)
	if err := diffEpochResult(got, want); err != nil {
		t.Fatalf("%s epoch [%d,%d): %v", what, ep.Start, ep.End, err)
	}
}

// TestReplayMatchesReference replays seeded random traces on every chip of
// refChips under every configuration of refConfigs, then under random
// reconfiguration, context-switch and rebinding sequences, and requires
// Machine to match the reference machine bit for bit.
func TestReplayMatchesReference(t *testing.T) {
	cfgs := refConfigs()
	for ci, chip := range refChips {
		rng := rand.New(rand.NewSource(int64(ci + 1)))
		traces := []*Trace{refTrace(rng, chip, 6000), refTrace(rng, chip, 4000)}
		var total refStats
		addStats := func(s refStats) {
			total.evictions += s.evictions
			total.dirtyWB += s.dirtyWB
			total.prefFills += s.prefFills
			total.spmFills += s.spmFills
			total.streamHits += s.streamHits
		}
		name := fmt.Sprintf("%dx%d", chip.Tiles, chip.GPEsPerTile)

		for _, cfg := range cfgs {
			tr := traces[0]
			m, ref := New(chip, DefaultBandwidth, cfg), newReferenceMachine(chip, DefaultBandwidth, cfg)
			m.BindTrace(tr)
			ref.bindTrace(tr)
			for _, ep := range tr.Epochs(40) {
				checkEpoch(t, name+" "+cfg.String(), m, ref, ep)
			}
			addStats(ref.stats)
		}

		for seq := 0; seq < 6; seq++ {
			cfg := randomConfig(rng)
			m, ref := New(chip, DefaultBandwidth, cfg), newReferenceMachine(chip, DefaultBandwidth, cfg)
			tr := traces[seq%2]
			m.BindTrace(tr)
			ref.bindTrace(tr)
			eps := tr.Epochs(10 + rng.Intn(60))
			if seq%3 == 2 {
				eps = tr.EpochsN(1 + rng.Intn(40))
			}
			for i := 0; i < len(eps); i++ {
				what := fmt.Sprintf("%s seq %d step %d %v", name, seq, i, m.Config())
				checkEpoch(t, what, m, ref, eps[i])
				switch rng.Intn(8) {
				case 0, 1, 2:
					to := randomConfig(rng)
					if rng.Intn(4) != 0 {
						to[config.L1Type] = m.Config()[config.L1Type]
					}
					rc, err := m.Reconfigure(to)
					wrc, werr := ref.reconfigure(to)
					if d := diffReconfig(rc, err, wrc, werr); d != nil {
						t.Fatalf("%s: Reconfigure to %v: %v", what, to, d)
					}
				case 3:
					to := randomConfig(rng)
					rc, err := m.ContextSwitch(to)
					wrc, werr := ref.contextSwitch(to)
					if d := diffReconfig(rc, err, wrc, werr); d != nil {
						t.Fatalf("%s: ContextSwitch to %v: %v", what, to, d)
					}
				case 4:
					tr = traces[rng.Intn(len(traces))]
					m.BindTrace(tr)
					ref.bindTrace(tr)
					eps = tr.Epochs(10 + rng.Intn(60))
					i = rng.Intn(len(eps)) - 1
				case 5:
					p := float64(rng.Intn(5000))
					m.InjectPenalty(p)
					ref.injectPenalty(p)
				}
			}
			addStats(ref.stats)
		}
		if total.evictions == 0 || total.dirtyWB == 0 || total.prefFills == 0 || total.spmFills == 0 || total.streamHits == 0 {
			t.Fatalf("%s: traces miss a path: %+v", name, total)
		}
	}
}

// FuzzReplayMatchesReference decodes a chip, a configuration, an epoch
// size, a raw event stream (any address, core, kind and static
// instruction, and KInt runs from one operation up to 2³²−1) with two
// reuse regions, and a per-epoch schedule of reconfigurations, context
// switches and penalties, and requires Machine to replay it as the
// reference machine does.
func FuzzReplayMatchesReference(f *testing.F) {
	f.Add([]byte{0x12, 0x00, 0x00, 0x00, 5, 3, 0x10, 0x20, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{0x27, 0x35, 0x91, 0x4c, 2, 9, 0xff, 0xff, 0xfe, 0x81, 0x13, 0x77, 0x00, 0x42, 0x99, 0xa5, 0x3c, 0x0f, 0xf0, 0x5a, 0x7e})
	f.Add([]byte{0x03, 0xa0, 0x13, 0x55, 1, 0, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		chip := power.Chip{Tiles: 1 + int(next()&3), GPEsPerTile: 1 + int(next())%18}
		cfg := config.FromIndex(int(uint32(next())<<16|uint32(next())<<8|uint32(next())) % config.SpaceSize())
		epochFP := 1 + int(next())%16
		nGPE := chip.NGPE()

		// A run of events per record: base address, stride, core, kind and
		// length come from five bytes, so a short input still spans many
		// lines and sets. A KInt record's events carry a run length
		// instead of an address: 1+a, or 2³²−1−a when the stride's top
		// bit is set.
		nRec := 1 + int(next())%48
		hot := Region{Name: "hot", Lo: uint32(next()) << 10, Kind: RegionReuse}
		hot.Hi = hot.Lo + uint32(next())<<8 + LineSize
		cold := Region{Name: "cold", Lo: hot.Hi + uint32(next())<<12, Kind: RegionReuse, Priority: 1}
		cold.Hi = cold.Lo + uint32(next())<<10 + LineSize
		tr := &Trace{NCores: nGPE, NLCP: chip.Tiles, Regions: []Region{hot, cold}}
		for r := 0; r < nRec; r++ {
			a, s, c, k := next(), next(), next(), next()
			core := uint8(int(c) % (nGPE + chip.Tiles))
			addr := uint32(a) << (8 + (s & 15) + (s>>4)%9)
			if a&1 != 0 {
				addr = hot.Lo + uint32(a)<<4
			}
			step := uint32(int8(s)) * 8
			kind := EventKind(k % 6)
			if kind == KInt {
				addr, step = 1+uint32(a), 0
				if s&0x80 != 0 {
					addr = math.MaxUint32 - uint32(a)
				}
			}
			for i := 0; i < 2+int(k>>3)%24; i++ {
				tr.Events = append(tr.Events, Event{Addr: addr, PC: uint16(k & 7), Core: core, Kind: kind})
				if kind.IsFP() {
					tr.FPOps++
				}
				addr += step
			}
		}
		m, ref := New(chip, DefaultBandwidth, cfg), newReferenceMachine(chip, DefaultBandwidth, cfg)
		m.BindTrace(tr)
		ref.bindTrace(tr)
		for i, ep := range tr.Epochs(epochFP) {
			checkEpoch(t, fmt.Sprintf("%dx%d %v epoch %d", chip.Tiles, chip.GPEsPerTile, m.Config(), i), m, ref, ep)
			op := next()
			to := config.FromIndex((int(op)*2654435761 + i) % config.SpaceSize())
			switch op & 3 {
			case 1:
				to[config.L1Type] = m.Config()[config.L1Type]
				rc, err := m.Reconfigure(to)
				wrc, werr := ref.reconfigure(to)
				if d := diffReconfig(rc, err, wrc, werr); d != nil {
					t.Fatalf("Reconfigure to %v: %v", to, d)
				}
			case 2:
				rc, err := m.ContextSwitch(to)
				wrc, werr := ref.contextSwitch(to)
				if d := diffReconfig(rc, err, wrc, werr); d != nil {
					t.Fatalf("ContextSwitch to %v: %v", to, d)
				}
			case 3:
				m.InjectPenalty(float64(op))
				ref.injectPenalty(float64(op))
			}
		}
	})
}
