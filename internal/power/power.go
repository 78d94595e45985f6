// Package power is the energy estimator for the Transmuter machine model,
// substituting for the paper's CACTI + RTL-synthesis power model (Section
// 5.2). It provides per-event energies with CACTI-like capacity scaling,
// leakage power, the paper's DVFS voltage/frequency relation (Section
// 3.2.1), and the two optimization-mode metrics (GFLOPS/W and GFLOPS³/W).
package power

import (
	"fmt"
	"math"

	"sparseadapt/internal/config"
)

// DVFS electrical constants. The nominal operating point (VDD at fNom)
// follows the paper's model: f ∝ (VDD−Vt)²/VDD with the minimum voltage
// clamped at 1.3·Vt for correct functionality.
const (
	VDD     = 0.8  // nominal supply, volts
	Vt      = 0.25 // threshold voltage, volts
	FNomMHz = 1000 // nominal frequency at VDD
)

// Voltage returns the supply voltage required to run at fMHz, from the
// paper's relation f/ftarget = [(VDD−Vt)²/VDD] / [(Vt−Vtarget)²/Vtarget],
// solved in closed form and clamped at 1.3·Vt.
func Voltage(fMHz float64) float64 {
	if fMHz >= FNomMHz {
		return VDD
	}
	k := (fMHz / FNomMHz) * (VDD - Vt) * (VDD - Vt) / VDD
	// (V−Vt)² = k·V  →  V² − (2Vt+k)·V + Vt² = 0, larger root.
	b := 2*Vt + k
	disc := b*b - 4*Vt*Vt
	if disc < 0 {
		disc = 0
	}
	v := (b + math.Sqrt(disc)) / 2
	if min := 1.3 * Vt; v < min {
		v = min
	}
	return v
}

// Scale returns the factor by which total power is reduced at fMHz:
// (Vtarget/VDD)², per Section 3.2.1.
func Scale(fMHz float64) float64 {
	v := Voltage(fMHz) / VDD
	return v * v
}

// Per-event dynamic energies (joules), 14 nm-class constants. Cache access
// energy grows roughly with the square root of capacity (CACTI trend);
// scratchpad accesses skip the tag array (Section 3.2.4).
const (
	eGPEInstr  = 6e-12
	eLCPInstr  = 8e-12
	eXbar      = 1.0e-12
	eXbarCont  = 0.4e-12
	eDRAMBytRd = 25e-12
	eDRAMBytWr = 28e-12
	spmFactor  = 0.6
	l2Factor   = 1.5
)

// CacheAccessJ returns the per-access energy of a cache bank of the given
// per-bank capacity in kB.
func CacheAccessJ(capKB int) float64 {
	return (0.5 + 0.45*math.Sqrt(float64(capKB))) * 1e-12
}

// SPMAccessJ returns the per-access energy of a scratchpad bank.
func SPMAccessJ(capKB int) float64 { return spmFactor * CacheAccessJ(capKB) }

// Leakage powers (watts).
const (
	pLeakGPE      = 0.4e-3
	pLeakLCP      = 0.5e-3
	pLeakCachePer = 0.05e-3 // per kB
)

// Chip describes the physical replication of the evaluated system: the 2×8
// Transmuter of Section 5.2 has 2 tiles × 8 GPEs, 8 L1 banks per tile and
// one L2 bank per tile.
type Chip struct {
	Tiles       int
	GPEsPerTile int
}

// NGPE returns the total GPE count.
func (c Chip) NGPE() int { return c.Tiles * c.GPEsPerTile }

// L1Banks returns the total L1 bank count (one per GPE).
func (c Chip) L1Banks() int { return c.Tiles * c.GPEsPerTile }

// L2Banks returns the total L2 bank count (one per tile).
func (c Chip) L2Banks() int { return c.Tiles }

// LeakageW returns the chip leakage power at nominal voltage for the given
// configuration (capacity-dependent: unused sub-banks are power-gated).
func (c Chip) LeakageW(cfg config.Config) float64 {
	l1kB := float64(c.L1Banks() * cfg.L1CapKB())
	l2kB := float64(c.L2Banks() * cfg.L2CapKB())
	leakL1 := pLeakCachePer * l1kB
	if cfg.L1IsSPM() {
		leakL1 *= spmFactor
	}
	return float64(c.NGPE())*pLeakGPE + float64(c.Tiles)*pLeakLCP +
		leakL1 + pLeakCachePer*l2kB
}

// Counts aggregates the energy-relevant event totals of one epoch (or of a
// reconfiguration action), produced by the machine replay.
type Counts struct {
	GPEInstrs      int
	LCPInstrs      int
	L1Accesses     int // demand + prefetch fills + flush writebacks
	SPMAccesses    int
	L2Accesses     int
	XbarTransfers  int
	XbarConts      int
	DRAMReadBytes  int
	DRAMWriteBytes int
}

// Add accumulates other into c.
func (c *Counts) Add(o Counts) {
	c.GPEInstrs += o.GPEInstrs
	c.LCPInstrs += o.LCPInstrs
	c.L1Accesses += o.L1Accesses
	c.SPMAccesses += o.SPMAccesses
	c.L2Accesses += o.L2Accesses
	c.XbarTransfers += o.XbarTransfers
	c.XbarConts += o.XbarConts
	c.DRAMReadBytes += o.DRAMReadBytes
	c.DRAMWriteBytes += o.DRAMWriteBytes
}

// Energy returns the total energy in joules of executing the counted events
// over timeSec under cfg, including leakage, with the whole budget scaled
// by the DVFS factor (V/VDD)² as in Section 3.2.1.
func Energy(chip Chip, cfg config.Config, cnt Counts, timeSec float64) float64 {
	dyn := float64(cnt.GPEInstrs)*eGPEInstr +
		float64(cnt.LCPInstrs)*eLCPInstr +
		float64(cnt.L1Accesses)*CacheAccessJ(cfg.L1CapKB()) +
		float64(cnt.SPMAccesses)*SPMAccessJ(cfg.L1CapKB()) +
		float64(cnt.L2Accesses)*l2Factor*CacheAccessJ(cfg.L2CapKB()) +
		float64(cnt.XbarTransfers)*eXbar +
		float64(cnt.XbarConts)*eXbarCont
	dram := float64(cnt.DRAMReadBytes)*eDRAMBytRd + float64(cnt.DRAMWriteBytes)*eDRAMBytWr
	leak := chip.LeakageW(cfg) * timeSec
	// DRAM energy is off-chip and does not scale with the on-chip rail.
	return (dyn+leak)*Scale(cfg.ClockMHz()) + dram
}

// Mode selects the optimization objective (Section 1): Energy-Efficient
// maximizes GFLOPS/W; Power-Performance maximizes GFLOPS³/W.
type Mode int

const (
	// EnergyEfficient optimizes GFLOPS/W (edge deployments).
	EnergyEfficient Mode = iota
	// PowerPerformance optimizes GFLOPS³/W (cloud deployments).
	PowerPerformance
)

// String names the mode.
func (m Mode) String() string {
	if m == EnergyEfficient {
		return "energy-efficient"
	}
	return "power-performance"
}

// ModeByName maps an objective name to its Mode: "ee" or
// "energy-efficient", "pp" or "power-performance".
func ModeByName(name string) (Mode, error) {
	switch name {
	case "ee", "energy-efficient":
		return EnergyEfficient, nil
	case "pp", "power-performance":
		return PowerPerformance, nil
	}
	return 0, fmt.Errorf("unknown mode %q (ee|pp)", name)
}

// Metrics is the (time, energy, work) triple every comparison in the paper
// is computed from.
type Metrics struct {
	TimeSec float64
	EnergyJ float64
	FPOps   float64
}

// Add accumulates o into m (sequential composition of program segments).
func (m *Metrics) Add(o Metrics) {
	m.TimeSec += o.TimeSec
	m.EnergyJ += o.EnergyJ
	m.FPOps += o.FPOps
}

// GFLOPS returns the achieved floating-point throughput.
func (m Metrics) GFLOPS() float64 {
	if m.TimeSec <= 0 {
		return 0
	}
	return m.FPOps / m.TimeSec / 1e9
}

// Watts returns the average power.
func (m Metrics) Watts() float64 {
	if m.TimeSec <= 0 {
		return 0
	}
	return m.EnergyJ / m.TimeSec
}

// GFLOPSPerW returns the energy efficiency.
func (m Metrics) GFLOPSPerW() float64 {
	if m.EnergyJ <= 0 {
		return 0
	}
	return m.FPOps / m.EnergyJ / 1e9
}

// Score returns the mode's objective value: GFLOPS/W for Energy-Efficient,
// GFLOPS³/W for Power-Performance. Higher is better.
func (m Metrics) Score(mode Mode) float64 {
	if mode == EnergyEfficient {
		return m.GFLOPSPerW()
	}
	g := m.GFLOPS()
	w := m.Watts()
	if w <= 0 {
		return 0
	}
	return g * g * g / w
}
