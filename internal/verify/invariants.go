package verify

import (
	"bytes"
	"fmt"
	"math/rand"

	"sparseadapt/internal/config"
	"sparseadapt/internal/core"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/oracle"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

// The metamorphic invariants: physical and structural properties the model
// must satisfy for *every* input, checked over seeded random cases. Unlike
// the golden corpus (which pins exact behavior of a few scenarios), these
// catch whole classes of defects — a cache that loses capacity, a DVFS curve
// that inverts, a kernel that miscounts work — anywhere in the input space.

// Invariants returns the full registry in a stable order.
func Invariants() []Invariant {
	return []Invariant{
		{
			Name:  "config-index-bijection",
			Doc:   "Config Index/FromIndex round-trip; all Neighbors are valid",
			Cases: 200,
			Check: checkConfigBijection,
		},
		{
			Name:  "matrix-roundtrip",
			Doc:   "COO/CSR/CSC conversions and MatrixMarket write/read preserve the matrix",
			Cases: 150,
			Check: checkMatrixRoundtrip,
		},
		{
			Name:  "kernel-differential-spmspv",
			Doc:   "Traced SpMSpV matches the dense reference on random inputs",
			Cases: 120,
			Check: checkDifferentialSpMSpV,
		},
		{
			Name:  "kernel-differential-spmspm",
			Doc:   "Traced SpMSpM matches the dense reference on random inputs",
			Cases: 100,
			Check: checkDifferentialSpMSpM,
		},
		{
			Name:  "flops-invariant-row-permutation",
			Doc:   "Row-permuting A leaves SpMSpV trace FLOPs unchanged and permutes y",
			Cases: 100,
			Check: checkFLOPsRowPermutation,
		},
		{
			Name:  "power-monotone-frequency",
			Doc:   "Voltage, DVFS scale and average power are monotone in clock frequency",
			Cases: 200,
			Check: checkPowerMonotoneFrequency,
		},
		{
			Name:  "energy-monotone-counts",
			Doc:   "Epoch energy is monotone in every event count and in elapsed time",
			Cases: 200,
			Check: checkEnergyMonotoneCounts,
		},
		{
			Name:  "cache-miss-monotone-capacity",
			Doc:   "L1 miss rate is monotone non-increasing in L1 capacity",
			Cases: 100,
			Check: checkMissMonotoneCapacity,
		},
		{
			Name:  "reconfig-penalty-conserved",
			Doc:   "Reconfiguration cycles and flush traffic are exactly conserved in the next epoch",
			Cases: 100,
			Check: checkReconfigConserved,
		},
		{
			Name:  "epochs-partition-trace",
			Doc:   "Epoch ranges partition the trace and conserve its FP-op total",
			Cases: 120,
			Check: checkEpochsPartition,
		},
		{
			Name:  "oracle-ee-bound",
			Doc:   "Oracle(EE) total energy never exceeds Ideal Static's; constant sequences price as statics",
			Cases: 100,
			Check: checkOracleEEBound,
		},
		{
			Name:  "history-feature-padding",
			Doc:   "History windows pad to constant width by repeating the oldest frame",
			Cases: 200,
			Check: checkHistoryPadding,
		},
		{
			Name:  "dataflow-equivalence",
			Doc:   "SpMSpM numeric result matches the dense reference and arithmetic FLOPs are identical across dataflow/format/sched variants",
			Cases: 100,
			Check: checkDataflowEquivalence,
		},
		{
			Name:  "format-roundtrip",
			Doc:   "Direct CSR/CSC/COO converters are exact inverses and produce structurally valid matrices",
			Cases: 120,
			Check: checkFormatRoundtrip,
		},
		{
			Name:  "conversion-cost-conserved",
			Doc:   "Format-switch conversion cycles match the cost model and are exactly conserved in epoch accounting",
			Cases: 100,
			Check: checkConversionCostConserved,
		},
	}
}

// InvariantByName finds a registered invariant.
func InvariantByName(name string) (Invariant, error) {
	for _, inv := range Invariants() {
		if inv.Name == name {
			return inv, nil
		}
	}
	return Invariant{}, fmt.Errorf("verify: unknown invariant %q", name)
}

// randomConfig draws a uniformly random valid configuration.
func randomConfig(rng *rand.Rand) config.Config {
	var c config.Config
	for p := config.Param(0); p < config.NumParams; p++ {
		c[p] = rng.Intn(config.Cardinality(p))
	}
	return c
}

func checkConfigBijection(rng *rand.Rand) error {
	c := randomConfig(rng)
	if !c.Valid() {
		return fmt.Errorf("randomConfig produced invalid %v", c)
	}
	idx := c.Index()
	if idx < 0 || idx >= config.SpaceSize() {
		return fmt.Errorf("config %v: index %d outside [0,%d)", c, idx, config.SpaceSize())
	}
	if back := config.FromIndex(idx); back != c {
		return fmt.Errorf("config %v: FromIndex(Index)=%v", c, back)
	}
	idx = rng.Intn(config.SpaceSize())
	c = config.FromIndex(idx)
	if !c.Valid() {
		return fmt.Errorf("FromIndex(%d)=%v is invalid", idx, c)
	}
	if c.Index() != idx {
		return fmt.Errorf("Index(FromIndex(%d))=%d", idx, c.Index())
	}
	for _, n := range config.Neighbors(c) {
		if !n.Valid() {
			return fmt.Errorf("config %v: invalid neighbor %v", c, n)
		}
		if n == c {
			return fmt.Errorf("config %v listed as its own neighbor", c)
		}
	}
	return nil
}

func checkMatrixRoundtrip(rng *rand.Rand) error {
	n := 4 + rng.Intn(40)
	m := 4 + rng.Intn(40)
	nnz := rng.Intn(n*m/2 + 1)
	a := matrix.Uniform(rng, n, m, nnz)
	if err := a.Validate(); err != nil {
		return fmt.Errorf("generated matrix: %w", err)
	}
	csr := a.ToCSR()
	// CSR->COO->CSR starts from merged entries, so it must be bit-exact.
	if got := csr.ToCOO().ToCSR(); !csr.Equal(got, 0) {
		return fmt.Errorf("%dx%d nnz=%d: CSR->COO->CSR changed the matrix", n, m, a.NNZ())
	}
	// Paths that re-merge the raw COO (which may hold duplicate
	// coordinates) sum duplicates in a different order, so they agree only
	// to rounding.
	if got := a.ToCSC().ToCSR(); !csr.Equal(got, refTol) {
		return fmt.Errorf("%dx%d nnz=%d: CSC->CSR disagrees with COO->CSR", n, m, a.NNZ())
	}
	var buf bytes.Buffer
	if err := matrix.WriteMatrixMarket(&buf, a); err != nil {
		return fmt.Errorf("WriteMatrixMarket: %w", err)
	}
	back, err := matrix.ReadMatrixMarket(&buf)
	if err != nil {
		return fmt.Errorf("ReadMatrixMarket of own output: %w", err)
	}
	if got := back.ToCSR(); !csr.Equal(got, refTol) {
		return fmt.Errorf("%dx%d nnz=%d: MatrixMarket round-trip changed the matrix", n, m, a.NNZ())
	}
	return nil
}

func checkDifferentialSpMSpV(rng *rand.Rand) error {
	n := 8 + rng.Intn(56)
	a := matrix.Uniform(rng, n, n, 1+rng.Intn(n*4)).ToCSC()
	x := matrix.RandomVec(rng, n, 0.1+0.8*rng.Float64())
	return CheckSpMSpV(a, x, corpusChip.NGPE(), corpusChip.Tiles)
}

func checkDifferentialSpMSpM(rng *rand.Rand) error {
	n := 8 + rng.Intn(32)
	a := matrix.Uniform(rng, n, n, 1+rng.Intn(n*3))
	b := matrix.Uniform(rng, n, n, 1+rng.Intn(n*3))
	return CheckSpMSpM(a.ToCSC(), b.ToCSR(), corpusChip.NGPE(), corpusChip.Tiles)
}

// traceFPOps totals the FP events of a workload trace via its epoching.
func traceFPOps(w kernels.Workload) int {
	tot := 0
	for _, ep := range w.Epochs(1) {
		tot += ep.FPOps
	}
	return tot
}

func checkFLOPsRowPermutation(rng *rand.Rand) error {
	n := 8 + rng.Intn(40)
	a := matrix.Uniform(rng, n, n, 1+rng.Intn(n*3))
	x := matrix.RandomVec(rng, n, 0.5)
	perm := rng.Perm(n)
	pa := matrix.NewCOO(n, n)
	for i := range a.V {
		pa.Add(perm[a.R[i]], a.C[i], a.V[i])
	}
	y1, w1, err := kernels.SpMSpV(a.ToCSC(), x, corpusChip.NGPE(), corpusChip.Tiles)
	if err != nil {
		return err
	}
	y2, w2, err := kernels.SpMSpV(pa.ToCSC(), x, corpusChip.NGPE(), corpusChip.Tiles)
	if err != nil {
		return err
	}
	f1, f2 := traceFPOps(w1), traceFPOps(w2)
	if f1 != f2 {
		return fmt.Errorf("n=%d: trace FP-ops changed under row permutation: %d vs %d", n, f1, f2)
	}
	d1, d2 := y1.Dense(), y2.Dense()
	for i := range d1 {
		if !closeRel(d1[i], d2[perm[i]]) {
			return fmt.Errorf("n=%d: y[%d]=%v but permuted y[%d]=%v", n, i, d1[i], perm[i], d2[perm[i]])
		}
	}
	return nil
}

func checkPowerMonotoneFrequency(rng *rand.Rand) error {
	// Voltage and scale curves over random frequency pairs.
	f1 := 10 + rng.Float64()*1500
	f2 := 10 + rng.Float64()*1500
	if f1 > f2 {
		f1, f2 = f2, f1
	}
	if power.Voltage(f1) > power.Voltage(f2)+1e-12 {
		return fmt.Errorf("Voltage(%v)=%v > Voltage(%v)=%v", f1, power.Voltage(f1), f2, power.Voltage(f2))
	}
	if power.Scale(f1) > power.Scale(f2)+1e-12 {
		return fmt.Errorf("Scale(%v)=%v > Scale(%v)=%v", f1, power.Scale(f1), f2, power.Scale(f2))
	}
	// Average power of a fixed compute-bound epoch under a DVFS sweep: the
	// same cycles and events finish faster and at higher voltage as the
	// clock rises, so power must be non-decreasing in frequency.
	cfg := randomConfig(rng)
	cnt := randomCounts(rng)
	cycles := float64(1000 + rng.Intn(1_000_000))
	prev := -1.0
	prevMHz := 0.0
	for k := 0; k < config.Cardinality(config.Clock); k++ {
		cfg[config.Clock] = k
		t := cycles / cfg.ClockHz()
		p := power.Energy(corpusChip, cfg, cnt, t) / t
		if p < prev*(1-1e-12) {
			return fmt.Errorf("config %v: power %vW at %vMHz < %vW at %vMHz", cfg, p, cfg.ClockMHz(), prev, prevMHz)
		}
		prev, prevMHz = p, cfg.ClockMHz()
	}
	return nil
}

// randomCounts draws a plausible random epoch event total.
func randomCounts(rng *rand.Rand) power.Counts {
	return power.Counts{
		GPEInstrs:      rng.Intn(1_000_000),
		LCPInstrs:      rng.Intn(100_000),
		L1Accesses:     rng.Intn(500_000),
		SPMAccesses:    rng.Intn(500_000),
		L2Accesses:     rng.Intn(200_000),
		XbarTransfers:  rng.Intn(200_000),
		XbarConts:      rng.Intn(50_000),
		DRAMReadBytes:  rng.Intn(1_000_000),
		DRAMWriteBytes: rng.Intn(1_000_000),
	}
}

func checkEnergyMonotoneCounts(rng *rand.Rand) error {
	cfg := randomConfig(rng)
	cnt := randomCounts(rng)
	t := 1e-6 + rng.Float64()*1e-2
	base := power.Energy(corpusChip, cfg, cnt, t)
	if base < 0 {
		return fmt.Errorf("config %v: negative energy %v", cfg, base)
	}
	bump := 1 + rng.Intn(10_000)
	fields := []struct {
		name   string
		bumped power.Counts
	}{
		{"GPEInstrs", addCounts(cnt, power.Counts{GPEInstrs: bump})},
		{"LCPInstrs", addCounts(cnt, power.Counts{LCPInstrs: bump})},
		{"L1Accesses", addCounts(cnt, power.Counts{L1Accesses: bump})},
		{"SPMAccesses", addCounts(cnt, power.Counts{SPMAccesses: bump})},
		{"L2Accesses", addCounts(cnt, power.Counts{L2Accesses: bump})},
		{"XbarTransfers", addCounts(cnt, power.Counts{XbarTransfers: bump})},
		{"XbarConts", addCounts(cnt, power.Counts{XbarConts: bump})},
		{"DRAMReadBytes", addCounts(cnt, power.Counts{DRAMReadBytes: bump})},
		{"DRAMWriteBytes", addCounts(cnt, power.Counts{DRAMWriteBytes: bump})},
	}
	for _, f := range fields {
		if e := power.Energy(corpusChip, cfg, f.bumped, t); e < base {
			return fmt.Errorf("config %v: energy fell from %v to %v when %s grew by %d", cfg, base, e, f.name, bump)
		}
	}
	if e := power.Energy(corpusChip, cfg, cnt, t*2); e < base {
		return fmt.Errorf("config %v: energy fell from %v to %v when time doubled (leakage must accrue)", cfg, base, e)
	}
	return nil
}

func checkMissMonotoneCapacity(rng *rand.Rand) error {
	n := 24 + rng.Intn(24)
	a := matrix.Uniform(rng, n, n, n*2+rng.Intn(n*2)).ToCSC()
	x := matrix.RandomVec(rng, n, 0.5)
	_, w, err := kernels.SpMSpV(a, x, corpusChip.NGPE(), corpusChip.Tiles)
	if err != nil {
		return err
	}
	ep := w.Epochs(0.2)[0]
	prevMiss := 2.0
	prevKB := 0
	for k := 0; k < config.Cardinality(config.L1Cap); k++ {
		// Private caches, no prefetching: capacity is the only variable, so
		// the access stream per bank is identical across the sweep.
		cfg := config.Config{config.CacheMode, config.Private, config.Private, k, 2, 3, 0}
		m := sim.New(corpusChip, corpusBW, cfg)
		m.BindTrace(w.Trace)
		r := m.RunEpoch(ep)
		if mr := r.Counters.L1MissRate; mr > prevMiss+1e-12 {
			return fmt.Errorf("n=%d: L1 miss rate rose from %v at %dkB to %v at %dkB", n, prevMiss, prevKB, mr, cfg.L1CapKB())
		} else {
			prevMiss, prevKB = mr, cfg.L1CapKB()
		}
	}
	return nil
}

func checkReconfigConserved(rng *rand.Rand) error {
	n := 24 + rng.Intn(24)
	a := matrix.Uniform(rng, n, n, n*2+rng.Intn(n*2)).ToCSC()
	x := matrix.RandomVec(rng, n, 0.5)
	_, w, err := kernels.SpMSpV(a, x, corpusChip.NGPE(), corpusChip.Tiles)
	if err != nil {
		return err
	}
	eps := w.Epochs(0.1)
	if len(eps) < 2 {
		return nil
	}
	clock := rng.Intn(config.Cardinality(config.Clock))
	capL1 := rng.Intn(config.Cardinality(config.L1Cap))
	capL2 := rng.Intn(config.Cardinality(config.L2Cap))
	// A→B flips both sharing modes (flushing both levels) and disables the
	// prefetcher (one super-fine change); capacities and clock are held so
	// the only state difference after the transition is the empty hierarchy.
	cfgA := config.Config{config.CacheMode, config.Shared, config.Shared, capL1, capL2, clock, 1}
	cfgB := config.Config{config.CacheMode, config.Private, config.Private, capL1, capL2, clock, 0}
	// Effectively infinite bandwidth keeps both runs compute-bound, so the
	// epoch time difference is exactly the pending cycles at the clock.
	const bw = 1e15
	m := sim.New(corpusChip, bw, cfgA)
	m.BindTrace(w.Trace)
	m.RunEpoch(eps[0])
	rc, err := m.Reconfigure(cfgB)
	if err != nil {
		return err
	}
	res2 := m.RunEpoch(eps[1])

	fresh := sim.New(corpusChip, bw, cfgB)
	fresh.BindTrace(w.Trace)
	res3 := fresh.RunEpoch(eps[1])

	gotCycles := (res2.Metrics.TimeSec - res3.Metrics.TimeSec) * cfgB.ClockHz()
	if diff := gotCycles - rc.Cycles; diff > 1e-6*(1+rc.Cycles) || diff < -1e-6*(1+rc.Cycles) {
		return fmt.Errorf("n=%d: epoch slowed by %v cycles, reconfiguration charged %v", n, gotCycles, rc.Cycles)
	}
	want := addCounts(res3.Counts, power.Counts{
		L1Accesses:     rc.L1Flushed,
		L2Accesses:     rc.L1Flushed + rc.L2Flushed,
		DRAMWriteBytes: rc.DRAMWrites,
	})
	if res2.Counts != want {
		return fmt.Errorf("n=%d: post-reconfig epoch counts %+v, want fresh-machine counts plus flush traffic %+v (rc %+v)", n, res2.Counts, want, rc)
	}
	return nil
}

// addCounts returns a+b without mutating either.
func addCounts(a, b power.Counts) power.Counts {
	a.Add(b)
	return a
}

func checkEpochsPartition(rng *rand.Rand) error {
	n := 8 + rng.Intn(48)
	a := matrix.Uniform(rng, n, n, 1+rng.Intn(n*3)).ToCSC()
	x := matrix.RandomVec(rng, n, 0.5)
	_, w, err := kernels.SpMSpV(a, x, corpusChip.NGPE(), corpusChip.Tiles)
	if err != nil {
		return err
	}
	scale := []float64{0.02, 0.05, 0.1, 0.5}[rng.Intn(4)]
	eps := w.Epochs(scale)
	if len(eps) == 0 {
		return fmt.Errorf("n=%d scale=%v: no epochs for a non-empty trace", n, scale)
	}
	if eps[0].Start != 0 {
		return fmt.Errorf("n=%d scale=%v: first epoch starts at %d", n, scale, eps[0].Start)
	}
	nev := len(w.Trace.Events)
	if last := eps[len(eps)-1].End; last != nev {
		return fmt.Errorf("n=%d scale=%v: last epoch ends at %d of %d events", n, scale, last, nev)
	}
	total := 0
	for i, ep := range eps {
		if ep.End <= ep.Start {
			return fmt.Errorf("n=%d scale=%v: epoch %d is empty [%d,%d)", n, scale, i, ep.Start, ep.End)
		}
		if i > 0 && ep.Start != eps[i-1].End {
			return fmt.Errorf("n=%d scale=%v: epoch %d starts at %d, previous ended at %d", n, scale, i, ep.Start, eps[i-1].End)
		}
		total += ep.FPOps
	}
	if ref := traceFPOps(w); total != ref {
		return fmt.Errorf("n=%d scale=%v: epochs carry %d FP-ops, trace has %d", n, scale, total, ref)
	}
	return nil
}

func checkOracleEEBound(rng *rand.Rand) error {
	n := 16 + rng.Intn(16)
	a := matrix.Uniform(rng, n, n, n+rng.Intn(n*2)).ToCSC()
	x := matrix.RandomVec(rng, n, 0.5)
	_, w, err := kernels.SpMSpV(a, x, corpusChip.NGPE(), corpusChip.Tiles)
	if err != nil {
		return err
	}
	cfgs := oracle.SampleConfigs(rng, 4, config.CacheMode)
	rec, err := oracle.RecordSource(corpusChip, corpusBW, kernels.Fixed(w), 0.1, cfgs)
	if err != nil {
		return err
	}
	staticCfg, staticTot := rec.IdealStatic(power.EnergyEfficient)
	_, oracleTot := rec.Oracle(power.EnergyEfficient)
	// Every static sequence is a path in the oracle's DAG, so the exact
	// energy-minimizing DP can never do worse than the best static.
	if oracleTot.EnergyJ > staticTot.EnergyJ*(1+1e-9) {
		return fmt.Errorf("n=%d: Oracle(EE) energy %v exceeds Ideal Static's %v", n, oracleTot.EnergyJ, staticTot.EnergyJ)
	}
	// Pricing the constant sequence must reproduce the static total exactly
	// (no phantom transition costs).
	si := -1
	for i, c := range rec.Configs {
		if c == staticCfg {
			si = i
		}
	}
	if si < 0 {
		return fmt.Errorf("n=%d: IdealStatic config %v not in the recording's set", n, staticCfg)
	}
	seq := make([]int, len(rec.Epochs))
	for i := range seq {
		seq[i] = si
	}
	got := rec.SequenceMetrics(seq)
	if !closeRel(got.TimeSec, staticTot.TimeSec) || !closeRel(got.EnergyJ, staticTot.EnergyJ) || !closeRel(got.FPOps, staticTot.FPOps) {
		return fmt.Errorf("n=%d: constant sequence prices as %+v, Ideal Static total is %+v", n, got, staticTot)
	}
	return nil
}

// traceArithFP counts the KFP ALU events of a trace — the dataflow
// invariant: every SpMSpM variant performs the same multiplies and
// accumulations, so the arithmetic FLOP total is exactly equal across
// variants even though load/store mixes (and thus total FP-ops) differ.
func traceArithFP(w kernels.Workload) int {
	tot := 0
	for _, e := range w.Trace.Events {
		if e.Kind == sim.KFP {
			tot++
		}
	}
	return tot
}

func checkDataflowEquivalence(rng *rand.Rand) error {
	n := 8 + rng.Intn(24)
	a := matrix.Uniform(rng, n, n, 1+rng.Intn(n*3))
	b := matrix.Uniform(rng, n, n, 1+rng.Intn(n*3))
	ref := RefSpMSpM(a.ToCSC(), b.ToCSR())
	arith := -1
	arithDF := -1
	for df := 0; df < len(config.DataflowNames()); df++ {
		// Each variant also draws a random format and scheduling policy, so
		// the three axes are exercised jointly: none of them may change the
		// numeric result or the arithmetic work.
		key := kernels.AlgoKey{
			Dataflow: df,
			Format:   rng.Intn(len(config.FormatNames())),
			Sched:    rng.Intn(len(config.SchedNames())),
		}
		c, w, err := kernels.SpMSpMVariant(a.ToCSC(), b.ToCSR(), corpusChip.NGPE(), corpusChip.Tiles, key)
		if err != nil {
			return fmt.Errorf("n=%d variant %v: %w", n, key, err)
		}
		got := c.Dense()
		for i := range ref {
			for j := range ref[i] {
				if !closeRel(ref[i][j], got[i][j]) {
					return fmt.Errorf("n=%d variant %v: C[%d][%d]=%v, dense reference %v", n, key, i, j, got[i][j], ref[i][j])
				}
			}
		}
		if fp := traceArithFP(w); arith < 0 {
			arith, arithDF = fp, df
		} else if fp != arith {
			return fmt.Errorf("n=%d: arithmetic FLOPs differ across dataflows: %s=%d, %s=%d",
				n, config.DataflowNames()[arithDF], arith, config.DataflowNames()[df], fp)
		}
	}
	return nil
}

func checkFormatRoundtrip(rng *rand.Rand) error {
	n := 4 + rng.Intn(40)
	m := 4 + rng.Intn(40)
	nnz := rng.Intn(n*m/2 + 1)
	csr := matrix.Uniform(rng, n, m, nnz).ToCSR()
	csc := csr.ToCSC()
	if err := csr.Validate(); err != nil {
		return fmt.Errorf("%dx%d nnz=%d: source CSR invalid: %w", n, m, csr.NNZ(), err)
	}
	if err := csc.Validate(); err != nil {
		return fmt.Errorf("%dx%d nnz=%d: CSR->CSC produced invalid CSC: %w", n, m, csr.NNZ(), err)
	}
	// Direct converters permute entries without re-summing, so the
	// round trips are bit-exact, not merely within tolerance.
	if got := csc.ToCSR(); !csr.Equal(got, 0) {
		return fmt.Errorf("%dx%d nnz=%d: CSR->CSC->CSR changed the matrix", n, m, csr.NNZ())
	}
	if got := csr.ToCOO().ToCSR(); !csr.Equal(got, 0) {
		return fmt.Errorf("%dx%d nnz=%d: CSR->COO->CSR changed the matrix", n, m, csr.NNZ())
	}
	if got := csc.ToCOO().ToCSR().ToCSC().ToCSR(); !csr.Equal(got, 0) {
		return fmt.Errorf("%dx%d nnz=%d: CSC->COO->CSR->CSC->CSR changed the matrix", n, m, csr.NNZ())
	}
	return nil
}

func checkConversionCostConserved(rng *rand.Rand) error {
	n := 24 + rng.Intn(24)
	a := matrix.Uniform(rng, n, n, n*2+rng.Intn(n*2)).ToCSC()
	x := matrix.RandomVec(rng, n, 0.5)
	_, w, err := kernels.SpMSpV(a, x, corpusChip.NGPE(), corpusChip.Tiles)
	if err != nil {
		return err
	}
	eps := w.Epochs(0.1)
	if len(eps) < 2 {
		return nil
	}
	clock := rng.Intn(config.Cardinality(config.Clock))
	capL1 := rng.Intn(config.Cardinality(config.L1Cap))
	capL2 := rng.Intn(config.Cardinality(config.L2Cap))
	from := rng.Intn(len(config.FormatNames()))
	to := rng.Intn(len(config.FormatNames()) - 1)
	if to >= from {
		to++
	}
	// A→B changes only the storage format: an algorithmic transition that
	// flushes both levels and charges the per-nonzero conversion cost.
	cfgA := config.Config{config.CacheMode, config.Shared, config.Shared, capL1, capL2, clock, 1, config.DFOuter, from, config.SchedRR}
	cfgB := config.Config{config.CacheMode, config.Shared, config.Shared, capL1, capL2, clock, 1, config.DFOuter, to, config.SchedRR}
	const bw = 1e15
	m := sim.New(corpusChip, bw, cfgA)
	m.BindTrace(w.Trace)
	m.RunEpoch(eps[0])
	rc, err := m.Reconfigure(cfgB)
	if err != nil {
		return err
	}
	// The charged conversion cycles must be exactly the cost model's: one
	// algorithmic swap charge plus the per-nonzero format conversion.
	wantConv := config.AlgoSwapCycles + config.ConversionCyclesPerNNZ(from, to)*float64(w.Trace.NNZ)
	if rc.ConvCycles != wantConv {
		return fmt.Errorf("n=%d %s->%s nnz=%d: conversion charged %v cycles, cost model says %v",
			n, config.FormatNames()[from], config.FormatNames()[to], w.Trace.NNZ, rc.ConvCycles, wantConv)
	}
	res2 := m.RunEpoch(eps[1])

	fresh := sim.New(corpusChip, bw, cfgB)
	fresh.BindTrace(w.Trace)
	res3 := fresh.RunEpoch(eps[1])

	// At effectively infinite bandwidth both runs are compute-bound, so the
	// epoch slowdown is exactly the pending reconfiguration cycles —
	// conversion included — at cfgB's clock.
	gotCycles := (res2.Metrics.TimeSec - res3.Metrics.TimeSec) * cfgB.ClockHz()
	if diff := gotCycles - rc.Cycles; diff > 1e-6*(1+rc.Cycles) || diff < -1e-6*(1+rc.Cycles) {
		return fmt.Errorf("n=%d %s->%s: epoch slowed by %v cycles, reconfiguration charged %v (conversion %v)",
			n, config.FormatNames()[from], config.FormatNames()[to], gotCycles, rc.Cycles, rc.ConvCycles)
	}
	want := addCounts(res3.Counts, power.Counts{
		L1Accesses:     rc.L1Flushed,
		L2Accesses:     rc.L1Flushed + rc.L2Flushed,
		DRAMWriteBytes: rc.DRAMWrites,
	})
	if res2.Counts != want {
		return fmt.Errorf("n=%d %s->%s: post-switch epoch counts %+v, want fresh-machine counts plus flush traffic %+v (rc %+v)",
			n, config.FormatNames()[from], config.FormatNames()[to], res2.Counts, want, rc)
	}
	return nil
}

func checkHistoryPadding(rng *rand.Rand) error {
	cfg := randomConfig(rng)
	h := 1 + rng.Intn(4)
	window := make([]sim.Counters, 1+rng.Intn(h))
	for i := range window {
		f := make([]float64, sim.NumFeatures)
		for j := range f {
			f[j] = rng.Float64()
		}
		window[i] = sim.CountersFromFeatures(f)
	}
	x := core.BuildHistoryFeatures(cfg, window, h)
	if len(x) != core.HistoryFeatureCount(h) {
		return fmt.Errorf("h=%d window=%d: width %d, want %d", h, len(window), len(x), core.HistoryFeatureCount(h))
	}
	// Short windows pad by repeating the oldest frame: the padded vector
	// must equal the one built from an explicitly front-filled window.
	full := make([]sim.Counters, 0, h)
	for i := 0; i < h-len(window); i++ {
		full = append(full, window[0])
	}
	full = append(full, window...)
	want := core.BuildHistoryFeatures(cfg, full, h)
	for i := range x {
		if x[i] != want[i] {
			return fmt.Errorf("h=%d window=%d: padded vector diverges at %d: %v vs %v", h, len(window), i, x[i], want[i])
		}
	}
	// The empty window must be a sanitized neutral frame, never raw zeros:
	// a zero clock or zero capacity is impossible telemetry.
	empty := core.BuildHistoryFeatures(cfg, nil, h)
	if len(empty) != core.HistoryFeatureCount(h) {
		return fmt.Errorf("h=%d: empty-window width %d, want %d", h, len(empty), core.HistoryFeatureCount(h))
	}
	zeros := true
	for _, v := range empty[core.ConfigFeatureCount:] {
		if v != 0 {
			zeros = false
		}
	}
	if zeros {
		return fmt.Errorf("h=%d: empty window produced an all-zero telemetry frame", h)
	}
	return nil
}
