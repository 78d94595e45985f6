package sim

import "sparseadapt/internal/power"

// Counters is the per-epoch hardware telemetry of Table 2, spatially
// averaged across replicated blocks and temporally normalized to the
// epoch's elapsed cycles, exactly as the paper's runtime pre-processes it
// (Section 3.3).
type Counters struct {
	// R-DCache counters, L1 layer.
	L1AccessRate float64 // accesses per cycle across the layer
	L1Occupancy  float64 // fraction of valid tags
	L1MissRate   float64
	L1PrefRatio  float64 // prefetches issued per demand access
	L1CapKB      float64 // current capacity (fed back per Section 4.2)

	// R-DCache counters, L2 layer.
	L2AccessRate float64
	L2Occupancy  float64
	L2MissRate   float64
	L2PrefRatio  float64
	L2CapKB      float64

	// R-XBar contention-to-access ratios.
	XbarL1Cont float64
	XbarL2Cont float64

	// Core counters.
	GPEIPC   float64
	GPEFPIPC float64
	LCPIPC   float64
	ClockMHz float64

	// Memory controller utilization (used/available bandwidth).
	MemReadUtil  float64
	MemWriteUtil float64
}

// NumFeatures is the length of the telemetry feature vector.
const NumFeatures = 18

// Features flattens the counters into the model input vector. Order is
// fixed and matches FeatureNames.
func (c Counters) Features() []float64 {
	return []float64{
		c.L1AccessRate, c.L1Occupancy, c.L1MissRate, c.L1PrefRatio, c.L1CapKB,
		c.L2AccessRate, c.L2Occupancy, c.L2MissRate, c.L2PrefRatio, c.L2CapKB,
		c.XbarL1Cont, c.XbarL2Cont,
		c.GPEIPC, c.GPEFPIPC, c.LCPIPC, c.ClockMHz,
		c.MemReadUtil, c.MemWriteUtil,
	}
}

// FeatureMap returns the counters keyed by their FeatureNames, the form
// epoch trace records carry.
func (c Counters) FeatureMap() map[string]float64 {
	names := FeatureNames()
	vals := c.Features()
	m := make(map[string]float64, len(names))
	for i, n := range names {
		m[n] = vals[i]
	}
	return m
}

// FeatureNames returns the telemetry feature names in Features order.
func FeatureNames() []string {
	return []string{
		"l1-access-rate", "l1-occupancy", "l1-miss-rate", "l1-pref-ratio", "l1-cap-kb",
		"l2-access-rate", "l2-occupancy", "l2-miss-rate", "l2-pref-ratio", "l2-cap-kb",
		"xbar-l1-contention", "xbar-l2-contention",
		"gpe-ipc", "gpe-fp-ipc", "lcp-ipc", "clock-mhz",
		"mem-read-util", "mem-write-util",
	}
}

// FeatureGroup labels each feature with its hardware block for the Figure
// 10 feature-importance analysis.
func FeatureGroup(i int) string {
	switch {
	case i < 5:
		return "L1 R-DCache"
	case i < 10:
		return "L2 R-DCache"
	case i < 12:
		return "R-XBar"
	case i < 14:
		return "GPE"
	case i == 14:
		return "LCP"
	case i == 15:
		return "Clock"
	default:
		return "Mem Ctrl"
	}
}

// CountersFromFeatures reconstructs a Counters from a feature vector in
// Features order.
func CountersFromFeatures(f []float64) Counters {
	return Counters{
		L1AccessRate: f[0], L1Occupancy: f[1], L1MissRate: f[2], L1PrefRatio: f[3], L1CapKB: f[4],
		L2AccessRate: f[5], L2Occupancy: f[6], L2MissRate: f[7], L2PrefRatio: f[8], L2CapKB: f[9],
		XbarL1Cont: f[10], XbarL2Cont: f[11],
		GPEIPC: f[12], GPEFPIPC: f[13], LCPIPC: f[14], ClockMHz: f[15],
		MemReadUtil: f[16], MemWriteUtil: f[17],
	}
}

// AverageCounters returns the element-wise mean of a set of counters, the
// temporal averaging the runtime applies across an evaluation window.
func AverageCounters(cs []Counters) Counters {
	if len(cs) == 0 {
		return Counters{}
	}
	acc := make([]float64, NumFeatures)
	for _, c := range cs {
		for i, v := range c.Features() {
			acc[i] += v
		}
	}
	for i := range acc {
		acc[i] /= float64(len(cs))
	}
	return CountersFromFeatures(acc)
}

// buildCounters derives the Table 2 telemetry from the epoch's raw machine
// state. cycles is the epoch's critical-path compute cycle count, t its
// wall time. Rates and IPCs are normalized to the *elapsed* cycles of the
// epoch (t × f), exactly as the paper's runtime does (Section 3.3) — this
// is what lets the model see how memory-bound an epoch really was: a
// bandwidth-stalled epoch has many elapsed cycles and thus a low IPC.
func (m *Machine) buildCounters(cycles, t float64, cnt power.Counts, l1Cont, l2Cont int) Counters {
	l1 := sumBanks(m.l1)
	l2 := sumBanks(m.l2)
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	elapsed := t * m.cfg.ClockHz()
	if elapsed < cycles {
		elapsed = cycles
	}
	c := Counters{
		L1AccessRate: div(float64(l1.acc), elapsed),
		L1Occupancy:  occupancyOf(m.l1),
		L1MissRate:   div(float64(l1.miss), float64(l1.acc)),
		L1PrefRatio:  div(float64(l1.pref), float64(l1.acc)),
		L1CapKB:      float64(m.cfg.L1CapKB()),

		L2AccessRate: div(float64(l2.acc), elapsed),
		L2Occupancy:  occupancyOf(m.l2),
		L2MissRate:   div(float64(l2.miss), float64(l2.acc)),
		L2PrefRatio:  div(float64(l2.pref), float64(l2.acc)),
		L2CapKB:      float64(m.cfg.L2CapKB()),

		XbarL1Cont: div(float64(l1Cont), float64(l1.acc)),
		XbarL2Cont: div(float64(l2Cont), float64(l2.acc)),

		GPEIPC:   div(float64(m.gpeInstr), elapsed*float64(m.chip.NGPE())),
		GPEFPIPC: div(float64(m.gpeFP), elapsed*float64(m.chip.NGPE())),
		LCPIPC:   div(float64(m.lcpInstr), elapsed*float64(m.chip.Tiles)),
		ClockMHz: m.cfg.ClockMHz(),

		MemReadUtil:  div(float64(cnt.DRAMReadBytes), m.bw*t),
		MemWriteUtil: div(float64(cnt.DRAMWriteBytes), m.bw*t),
	}
	// In scratchpad mode the "L1" block counters reflect SPM activity.
	if m.cfg.L1IsSPM() {
		c.L1AccessRate = div(float64(cnt.SPMAccesses), elapsed)
		c.L1MissRate = 0
		c.L1Occupancy = div(float64(len(m.spmFilled)*LineSize),
			float64(m.chip.L1Banks()*m.cfg.L1CapKB()*1024))
		if c.L1Occupancy > 1 {
			c.L1Occupancy = 1
		}
	}
	return c
}
