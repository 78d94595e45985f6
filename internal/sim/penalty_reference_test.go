package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sparseadapt/internal/config"
	"sparseadapt/internal/power"
)

// This file keeps the transition pricing TransitionPenalty and
// SwitchPenalty started from as references: each writes out its own time
// bound and energy formula. The exported functions must price every
// transition and every ReconfigCost bit for bit as these do.

// refSwitchPenalty is the reference price of a ContextSwitch cost.
func refSwitchPenalty(chip power.Chip, to config.Config, rc ReconfigCost, bw float64) (timeSec, energyJ float64) {
	timeSec = rc.TimeSec(to.ClockHz(), bw)
	dyn := float64(rc.L1Flushed)*power.CacheAccessJ(to.L1CapKB()) +
		float64(rc.L1Flushed+rc.L2Flushed)*1.5*power.CacheAccessJ(to.L2CapKB())
	leak := 0.3 * chip.LeakageW(to) * timeSec
	energyJ = (dyn+leak)*power.Scale(to.ClockMHz()) + float64(rc.DRAMWrites)*28e-12
	return timeSec, energyJ
}

// refTransitionPenalty is the reference price of a transition between two
// configurations given the dirty lines at the boundary.
func refTransitionPenalty(chip power.Chip, from, to config.Config, dirtyL1, dirtyL2, nnz int, bw float64) (timeSec, energyJ float64) {
	tr := config.Classify(from, to)
	if tr.IsNoop() {
		return 0, 0
	}
	cycles := float64(tr.SuperFineChanges) * config.SuperFineCycles
	cycles += tr.ConversionCycles(nnz)
	var cnt power.Counts
	if tr.FlushL1 {
		cycles += float64(dirtyL1) * flushCyclesPerLine
		cnt.L1Accesses += dirtyL1
		cnt.L2Accesses += dirtyL1
	}
	if tr.FlushL2 {
		cycles += float64(dirtyL2) * flushCyclesPerLine
		cnt.L2Accesses += dirtyL2
		cnt.DRAMWriteBytes += dirtyL2 * LineSize
	}
	timeSec = cycles / to.ClockHz()
	if bt := float64(cnt.DRAMWriteBytes) / bw; bt > timeSec {
		timeSec = bt
	}
	dyn := float64(cnt.L1Accesses)*power.CacheAccessJ(to.L1CapKB()) +
		float64(cnt.L2Accesses)*1.5*power.CacheAccessJ(to.L2CapKB())
	leak := 0.3 * chip.LeakageW(to) * timeSec
	energyJ = (dyn+leak)*power.Scale(to.ClockMHz()) + float64(cnt.DRAMWriteBytes)*28e-12
	return timeSec, energyJ
}

// penaltyClass names the cost class of a transition, the coverage axis of
// the pricing fences.
func penaltyClass(tr config.Transition) string {
	switch {
	case tr.IsNoop():
		return "no-op"
	case tr.Coarse:
		return "coarse"
	case tr.FormatChanged:
		return "algorithmic format"
	case tr.DataflowChanged:
		return "algorithmic dataflow"
	case tr.FlushL1 && tr.FlushL2:
		return "L1 and L2 flush"
	case tr.FlushL1:
		return "L1 flush"
	case tr.FlushL2:
		return "L2 flush"
	}
	return "super-fine only"
}

var (
	penaltyChips      = []power.Chip{testChip, {Tiles: 8, GPEsPerTile: 16}}
	penaltyBandwidths = []float64{DefaultBandwidth / 8, DefaultBandwidth, 64 * DefaultBandwidth}
	penaltyDirty      = []int{0, 1, 7, 999, 123_457, 1_000_000}
	penaltyNNZ        = []int{0, 1, 4_093, 10_000_000}
)

// logUniform draws an integer in [0, max], zero one time in eight and
// otherwise spread evenly over the decades.
func logUniform(rng *rand.Rand, max float64) int {
	if rng.Intn(8) == 0 {
		return 0
	}
	return int(math.Pow(max, rng.Float64()))
}

// checkTransitionPenalty compares TransitionPenalty with the reference on
// one input and reports any difference in the bits of time or energy.
func checkTransitionPenalty(chip power.Chip, from, to config.Config, dirtyL1, dirtyL2, nnz int, bw float64) error {
	ts, e := TransitionPenalty(chip, from, to, dirtyL1, dirtyL2, nnz, bw)
	wts, we := refTransitionPenalty(chip, from, to, dirtyL1, dirtyL2, nnz, bw)
	if math.Float64bits(ts) != math.Float64bits(wts) || math.Float64bits(e) != math.Float64bits(we) {
		return fmt.Errorf("%v -> %v (%s) dirty %d/%d nnz %d bw %g on %+v: got (%v s, %v J), reference (%v s, %v J)",
			from, to, penaltyClass(config.Classify(from, to)), dirtyL1, dirtyL2, nnz, bw, chip, ts, e, wts, we)
	}
	return nil
}

// checkSwitchPenalty compares SwitchPenalty with the reference on one
// input.
func checkSwitchPenalty(chip power.Chip, to config.Config, rc ReconfigCost, bw float64) error {
	ts, e := SwitchPenalty(chip, to, rc, bw)
	wts, we := refSwitchPenalty(chip, to, rc, bw)
	if math.Float64bits(ts) != math.Float64bits(wts) || math.Float64bits(e) != math.Float64bits(we) {
		return fmt.Errorf("%+v to %v bw %g on %+v: got (%v s, %v J), reference (%v s, %v J)", rc, to, bw, chip, ts, e, wts, we)
	}
	return nil
}

// TestTransitionPenaltyMatchesReference prices every ordered pair of the
// named configurations and every one-parameter sweep from them over a grid
// of dirty counts, operand sizes and bandwidths, then seeded random pairs
// over the whole space in both L1 types, and requires the bits of
// TransitionPenalty's time and energy to equal the reference's. Every cost
// class must occur among the cases.
func TestTransitionPenaltyMatchesReference(t *testing.T) {
	named := []config.Config{config.Baseline, config.BestAvgCache, config.BestAvgSPM, config.MaxCfg, config.MaxCfgSPM}
	var pairs [][2]config.Config
	for _, a := range named {
		for _, b := range named {
			pairs = append(pairs, [2]config.Config{a, b})
		}
		for p := config.Param(0); p < config.NumParams; p++ {
			for _, n := range config.Sweep(a, p) {
				pairs = append(pairs, [2]config.Config{a, n}, [2]config.Config{n, a})
			}
		}
	}
	seen := map[string]int{}
	for _, pr := range pairs {
		seen[penaltyClass(config.Classify(pr[0], pr[1]))]++
		for _, chip := range penaltyChips {
			for _, bw := range penaltyBandwidths {
				for _, nnz := range penaltyNNZ {
					for _, d1 := range penaltyDirty {
						for _, d2 := range penaltyDirty {
							if err := checkTransitionPenalty(chip, pr[0], pr[1], d1, d2, nnz, bw); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(28))
	n := config.SpaceSize()
	per := n / config.Cardinality(config.L1Type)
	for i := 0; i < 40_000; i++ {
		from := config.FromIndex(rng.Intn(n))
		to := config.FromIndex(rng.Intn(n))
		if i%10 != 0 {
			// Most pairs stay in from's L1 type, the runtime-reachable space.
			to = config.FromIndex(from[config.L1Type]*per + rng.Intn(per))
		}
		seen[penaltyClass(config.Classify(from, to))]++
		chip := penaltyChips[rng.Intn(len(penaltyChips))]
		bw := penaltyBandwidths[rng.Intn(len(penaltyBandwidths))]
		if err := checkTransitionPenalty(chip, from, to, logUniform(rng, 1e6), logUniform(rng, 1e6), logUniform(rng, 1e7), bw); err != nil {
			t.Fatal(err)
		}
	}
	for _, class := range []string{"no-op", "super-fine only", "L1 flush", "L2 flush", "L1 and L2 flush", "algorithmic format", "algorithmic dataflow", "coarse"} {
		if seen[class] == 0 {
			t.Errorf("no %s transition among the cases", class)
		}
	}
	t.Logf("cases per class: %v", seen)
}

// TestSwitchPenaltyMatchesReference prices random ReconfigCost values at
// random configurations of both L1 types and requires SwitchPenalty's bits
// to equal the reference's.
func TestSwitchPenaltyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 40_000; i++ {
		l1, l2 := logUniform(rng, 1e6), logUniform(rng, 1e6)
		rc := ReconfigCost{
			Cycles:     float64(logUniform(rng, 1e8)) + rng.Float64(),
			L1Flushed:  l1,
			L2Flushed:  l2,
			DRAMWrites: logUniform(rng, 64e6),
		}
		if i%2 == 0 {
			rc.DRAMWrites = l2 * LineSize
		}
		to := config.FromIndex(rng.Intn(config.SpaceSize()))
		chip := penaltyChips[rng.Intn(len(penaltyChips))]
		bw := penaltyBandwidths[rng.Intn(len(penaltyBandwidths))]
		if err := checkSwitchPenalty(chip, to, rc, bw); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzTransitionPenalty prices arbitrary configuration pairs, dirty counts,
// operand sizes, bandwidths, chips and ReconfigCost values, and requires
// TransitionPenalty and SwitchPenalty to equal their references bit for
// bit.
func FuzzTransitionPenalty(f *testing.F) {
	f.Add(uint32(config.Baseline.Index()), uint32(config.MaxCfg.Index()), uint32(500), uint32(100), uint32(0), 1e9, 5000.0, uint32(6400), uint8(0x21))
	f.Add(uint32(config.BestAvgSPM.Index()), uint32(config.MaxCfgSPM.Index()), uint32(1_000_000), uint32(999), uint32(10_000_000), 1.25e8, 0.5, uint32(0), uint8(0x7f))
	f.Add(uint32(config.BestAvgCache.Index()), uint32(config.Baseline.Index()), uint32(0), uint32(0), uint32(1), 6.4e10, 1e9, uint32(1<<30), uint8(0))
	f.Fuzz(func(t *testing.T, fromIdx, toIdx, dirtyL1, dirtyL2, nnz uint32, bw, cycles float64, dram uint32, shape uint8) {
		if !(bw > 0) || math.IsInf(bw, 1) || !(cycles >= 0) || math.IsInf(cycles, 1) {
			t.Skip()
		}
		n := uint32(config.SpaceSize())
		from, to := config.FromIndex(int(fromIdx%n)), config.FromIndex(int(toIdx%n))
		chip := power.Chip{Tiles: 1 + int(shape&7), GPEsPerTile: 1 + int(shape>>3)}
		if err := checkTransitionPenalty(chip, from, to, int(dirtyL1), int(dirtyL2), int(nnz), bw); err != nil {
			t.Fatal(err)
		}
		rc := ReconfigCost{Cycles: cycles, L1Flushed: int(dirtyL1), L2Flushed: int(dirtyL2), DRAMWrites: int(dram)}
		if err := checkSwitchPenalty(chip, to, rc, bw); err != nil {
			t.Fatal(err)
		}
	})
}
