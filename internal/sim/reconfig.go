package sim

import (
	"fmt"

	"sparseadapt/internal/config"
	"sparseadapt/internal/power"
)

// ReconfigCost summarizes what one reconfiguration cost: cycles charged at
// the new clock, dirty lines moved between levels, and the DRAM writeback
// traffic it generated.
type ReconfigCost struct {
	Cycles     float64
	L1Flushed  int // dirty L1 lines written to L2
	L2Flushed  int // dirty L2 lines written to DRAM
	DRAMWrites int // bytes
	// ConvCycles is the algorithmic component of Cycles: strategy-swap and
	// format-conversion cycles charged for a dataflow/format switch
	// (Transition.ConversionCycles over the bound trace's NNZ).
	ConvCycles float64
}

// TimeSec returns the wall time of the reconfiguration at clock fHz,
// accounting for the off-chip bandwidth bound on L2 writebacks.
func (rc ReconfigCost) TimeSec(fHz, bw float64) float64 {
	t := rc.Cycles / fHz
	if bt := float64(rc.DRAMWrites) / bw; bt > t {
		t = bt
	}
	return t
}

// Reconfigure transitions the machine to a new configuration, applying the
// cost taxonomy of Section 3.4: super-fine parameters cost a fixed 100
// cycles each; fine-grained parameters flush the affected level
// (pessimistically assuming the level is dirty, with the actual dirty lines
// written back through the hierarchy); algorithmic parameters additionally
// charge the strategy-swap and format-conversion cycles scaled by the
// bound trace's operand nonzero count; coarse parameters cannot change at
// runtime. The penalty is held pending and folded into the next RunEpoch.
func (m *Machine) Reconfigure(to config.Config) (ReconfigCost, error) {
	tr, err := m.classify(to)
	if err != nil {
		return ReconfigCost{}, err
	}
	rc := ReconfigCost{Cycles: float64(tr.SuperFineChanges) * config.SuperFineCycles}
	if tr.Algorithmic {
		rc.ConvCycles = tr.ConversionCycles(m.TraceNNZ())
		rc.Cycles += rc.ConvCycles
	}
	cnt := m.flush(&rc, to, tr.FlushL1, tr.FlushL2)
	if m.cfg.PrefetchDegree() != to.PrefetchDegree() {
		m.resetPrefetchers()
	}
	cnt.DRAMWriteBytes = rc.DRAMWrites
	m.apply(to, rc)
	m.pendCycles += rc.Cycles
	m.pendCounts.Add(cnt)
	return rc, nil
}

// ContextSwitch is the tenant-switch transition used by the time-multiplexed
// fabric (internal/tenant). Unlike Reconfigure, which flushes only the levels
// its transition class demands, a context switch always evicts the outgoing
// tenant's entire on-chip state: both cache levels are flushed (dirty lines
// written back through the hierarchy and on to DRAM), scratchpad residency
// and the per-core stream buffers are cleared, and all prefetchers are reset
// unconditionally — so the machine the incoming tenant resumes on is
// state-identical to a freshly constructed one, and its cold-cache misses are
// paid in its own epoch accounting. The cost is returned rather than folded
// into the next RunEpoch: the multiplexer charges switch time and energy to
// the incoming tenant's ledger explicitly (ReconfigCost.TimeSec plus
// SwitchPenalty), which keeps the resuming tenant's simulated epochs
// byte-identical to a solo run at any quantum length. Any penalty still
// pending from an earlier in-quantum Reconfigure is swept into the returned
// cost so it cannot leak across the tenant boundary. No format-conversion
// cycles are charged: the incoming tenant binds its own trace, already in its
// own format.
func (m *Machine) ContextSwitch(to config.Config) (ReconfigCost, error) {
	tr, err := m.classify(to)
	if err != nil {
		return ReconfigCost{}, err
	}
	rc := ReconfigCost{Cycles: float64(tr.SuperFineChanges) * config.SuperFineCycles}
	m.flush(&rc, to, true, true)
	m.resetPrefetchers()
	clear(m.streamValid)
	// SwitchPenalty prices the switch from rc alone, so the pending cycles
	// are swept into rc and the pending access counts are dropped.
	rc.Cycles += m.pendCycles
	m.pendCycles = 0
	m.pendCounts = power.Counts{}
	m.apply(to, rc)
	return rc, nil
}

// classify returns the transition from the active configuration to to, or
// an error when it changes a coarse parameter.
func (m *Machine) classify(to config.Config) (config.Transition, error) {
	tr := config.Classify(m.cfg, to)
	if tr.Coarse {
		return tr, fmt.Errorf("sim: coarse parameter change %v requires recompilation", tr.Changed)
	}
	return tr, nil
}

// flush empties the levels a transition to to demands, L1 before L2 so L1
// writebacks land in L2 (and are flushed onward if the L2 flushes too), and
// resizes every bank to to's capacities. It adds the flushed lines, their
// cycles and the DRAM writeback bytes to rc and returns the cache accesses
// the flush made.
func (m *Machine) flush(rc *ReconfigCost, to config.Config, l1, l2 bool) power.Counts {
	var cnt power.Counts
	if l1 && !m.cfg.L1IsSPM() {
		for _, b := range m.l1 {
			for _, lineAddr := range b.Flush() {
				rc.L1Flushed++
				cnt.L1Accesses++
				// Writebacks go to the tile-appropriate L2 bank; routing uses
				// the *new* sharing mode since the flush accompanies it.
				bank := 0
				if to.L2Shared() {
					bank = int(lineAddr) % m.chip.L2Banks()
				}
				ev := m.l2[bank].Insert(lineAddr, true, false)
				cnt.L2Accesses++
				if ev.Valid && ev.Dirty {
					rc.DRAMWrites += LineSize
				}
			}
		}
		rc.Cycles += float64(rc.L1Flushed) * flushCyclesPerLine
	}
	if l1 && m.cfg.L1IsSPM() {
		// Scratchpad "flush": resident filled lines are drained; roughly
		// half carry modified data.
		n := len(m.spmFilled)
		rc.L1Flushed = n / 2
		cnt.SPMAccesses += n
		cnt.L2Accesses += n / 2
		rc.Cycles += float64(n/2) * flushCyclesPerLine
		m.spmFilled = make(map[uint32]bool)
	}
	if l2 {
		for _, b := range m.l2 {
			dirty := b.Flush()
			rc.L2Flushed += len(dirty)
			cnt.L2Accesses += len(dirty)
			rc.DRAMWrites += len(dirty) * LineSize
		}
		rc.Cycles += float64(rc.L2Flushed) * flushCyclesPerLine
	}

	// After a flush the bank is empty and resize is free of casualties; on
	// a pure increase (super-fine) resident lines are preserved by the
	// sub-banked design. A shrink without a flush cannot happen (it is
	// classified fine), but casualties would be written back anyway.
	for _, b := range m.l1 {
		for range b.Resize(to.L1CapKB() * 1024) {
			cnt.L2Accesses++
		}
	}
	for _, b := range m.l2 {
		for range b.Resize(to.L2CapKB() * 1024) {
			rc.DRAMWrites += LineSize
		}
	}
	return cnt
}

func (m *Machine) resetPrefetchers() {
	for _, p := range m.l1pf {
		p.Reset()
	}
	for _, p := range m.l2pf {
		p.Reset()
	}
}

// apply makes to the active configuration once its transition's flushes
// are done, and publishes the transition's cost.
func (m *Machine) apply(to config.Config, rc ReconfigCost) {
	if m.mx != nil {
		m.mx.recordReconfig(rc)
	}
	m.cfg = to
	m.refreshDerived()
	m.rebuildSPMResidency()
}

// SwitchPenalty prices a transition's cost in wall time and energy at the
// incoming configuration's operating point: flush traffic at cache-access
// energy (L2 writes weighted 1.5x), cores power-gated during the flush
// (Section 5.2) at 30% leakage, DRAM writeback bytes at 28 pJ/byte, and
// time bounded below by the off-chip bandwidth on the writeback burst.
func SwitchPenalty(chip power.Chip, to config.Config, rc ReconfigCost, bw float64) (timeSec, energyJ float64) {
	timeSec = rc.TimeSec(to.ClockHz(), bw)
	dyn := float64(rc.L1Flushed)*power.CacheAccessJ(to.L1CapKB()) +
		float64(rc.L1Flushed+rc.L2Flushed)*1.5*power.CacheAccessJ(to.L2CapKB())
	leak := 0.3 * chip.LeakageW(to) * timeSec
	energyJ = (dyn+leak)*power.Scale(to.ClockMHz()) + float64(rc.DRAMWrites)*28e-12
	return timeSec, energyJ
}

// TransitionPenalty computes, without machine state, the time and energy
// penalty of switching from one configuration to another given the dirty
// line counts observed at the boundary and the operand nonzero count nnz
// (for the format-conversion charge of algorithmic switches; pass 0 when
// the algorithm axes are fixed). The oracle and ProfileAdapt constructions
// (Appendix A.7) use this when stitching recorded epoch segments. It builds
// the ReconfigCost a flush of those dirty lines would have, charged at the
// destination clock, and prices it with SwitchPenalty.
func TransitionPenalty(chip power.Chip, from, to config.Config, dirtyL1, dirtyL2, nnz int, bw float64) (timeSec, energyJ float64) {
	tr := config.Classify(from, to)
	if tr.IsNoop() {
		return 0, 0
	}
	rc := ReconfigCost{Cycles: float64(tr.SuperFineChanges) * config.SuperFineCycles}
	rc.Cycles += tr.ConversionCycles(nnz)
	if tr.FlushL1 {
		rc.L1Flushed = dirtyL1
		rc.Cycles += float64(dirtyL1) * flushCyclesPerLine
	}
	if tr.FlushL2 {
		rc.L2Flushed = dirtyL2
		rc.DRAMWrites = dirtyL2 * LineSize
		rc.Cycles += float64(dirtyL2) * flushCyclesPerLine
	}
	return SwitchPenalty(chip, to, rc, bw)
}
