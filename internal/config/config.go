// Package config models the action space of the runtime controller: the
// Transmuter hardware configuration space of Table 1 in the paper (seven
// parameters spanning 3600 discrete configurations) widened with three
// algorithm-level parameters — the SpMSpM dataflow, the storage format of
// the A operand, and the LCP work-scheduling policy — following the
// Misam-style extension of ROADMAP item 3. The package also provides the
// sampling, neighbourhood and per-dimension sweep operations the training
// pipeline uses (Section 4.1) and the reconfiguration-cost taxonomy of
// Section 3.4, extended with an "algorithmic" class for dataflow and
// format switches whose conversion cost scales with the operand's nonzero
// count.
package config

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// Param identifies one hardware configuration parameter.
type Param int

const (
	// L1Type selects cache vs scratchpad for the L1 R-DCache banks. It is
	// the only parameter fixed at compile time (Table 1 footnote).
	L1Type Param = iota
	// L1Share selects shared vs private L1 across the GPEs of a tile.
	L1Share
	// L2Share selects shared vs private L2 across tiles.
	L2Share
	// L1Cap is the per-bank L1 capacity (4–64 kB in ×2 steps).
	L1Cap
	// L2Cap is the per-bank L2 capacity (4–64 kB in ×2 steps).
	L2Cap
	// Clock is the global DVFS clock (31.25 MHz–1 GHz in ×2 steps).
	Clock
	// Prefetch is the stride-prefetcher aggressiveness (0, 4, 8 lines).
	Prefetch
	// Dataflow selects the SpMSpM formulation (outer/inner/row-wise). For
	// kernels with a single formulation (SpMSpV, graph kernels) the value is
	// accepted but has no effect.
	Dataflow
	// Format selects the storage format of the A operand (CSR/CSC/COO).
	// Accessing A through a format other than the dataflow's natural
	// orientation costs extra index traffic; switching formats mid-run costs
	// a per-nonzero conversion plus a full cache flush.
	Format
	// SchedPolicy selects the LCPs' work-distribution policy (round-robin or
	// least-loaded).
	SchedPolicy

	// NumParams is the number of configuration parameters.
	NumParams
)

// RuntimeParams lists the parameters SparseAdapt predicts at runtime: the
// six hardware knobs of the paper plus the three algorithm-level axes;
// L1Type is chosen by the compiler (Section 3.4).
var RuntimeParams = []Param{L1Share, L2Share, L1Cap, L2Cap, Clock, Prefetch, Dataflow, Format, SchedPolicy}

// paramNames indexes Param for display.
var paramNames = [NumParams]string{
	"l1-type", "l1-share", "l2-share", "l1-cap", "l2-cap", "clock", "prefetch",
	"dataflow", "format", "sched",
}

// String returns the parameter's short name.
func (p Param) String() string {
	if p < 0 || p >= NumParams {
		return fmt.Sprintf("param(%d)", int(p))
	}
	return paramNames[p]
}

// Categorical value indices for the sharing/type parameters.
const (
	CacheMode = 0 // L1Type: cache
	SPMMode   = 1 // L1Type: scratchpad
	Shared    = 0
	Private   = 1
)

// Dataflow value indices (SpMSpM formulations, Misam's action set).
const (
	DFOuter = 0 // outer product: A(CSC) × B(CSR), merge partial products
	DFInner = 1 // inner product: A(CSR) × B(CSC), index intersection
	DFRow   = 2 // row-wise (Gustavson): A(CSR) × B(CSR), sparse accumulator
)

// Format value indices for the A operand's storage format.
const (
	FmtCSR = 0
	FmtCSC = 1
	FmtCOO = 2
)

// SchedPolicy value indices for LCP work distribution.
const (
	SchedRR = 0 // round-robin assignment of work units to GPEs
	SchedLL = 1 // least-loaded: assign to the GPE with the lowest cost so far
)

// l1Names index the L1 type, and dataflowNames, formatNames and
// schedNames the algorithm axes, for display and CLI parsing.
var (
	l1Names       = []string{"cache", "spm"}
	dataflowNames = []string{"outer", "inner", "row"}
	formatNames   = []string{"csr", "csc", "coo"}
	schedNames    = []string{"rr", "ll"}
)

// DataflowNames returns the dataflow value names in index order.
func DataflowNames() []string { return append([]string(nil), dataflowNames...) }

// FormatNames returns the format value names in index order.
func FormatNames() []string { return append([]string(nil), formatNames...) }

// SchedNames returns the scheduling-policy value names in index order.
func SchedNames() []string { return append([]string(nil), schedNames...) }

func valueByName(axis string, names []string, v string) (int, error) {
	for i, n := range names {
		if n == v {
			return i, nil
		}
	}
	return 0, fmt.Errorf("config: unknown %s %q (%s)", axis, v, strings.Join(names, "|"))
}

// L1ByName maps an L1 type name ("cache", "spm") to CacheMode or SPMMode.
func L1ByName(v string) (int, error) { return valueByName("L1 type", l1Names, v) }

// DataflowByName maps a dataflow name ("outer", "inner", "row") to its
// value index, for CLI flag parsing.
func DataflowByName(v string) (int, error) { return valueByName("dataflow", dataflowNames, v) }

// FormatByName maps a storage-format name ("csr", "csc", "coo") to its
// value index.
func FormatByName(v string) (int, error) { return valueByName("format", formatNames, v) }

// SchedByName maps a scheduling-policy name ("rr", "ll") to its value
// index.
func SchedByName(v string) (int, error) { return valueByName("sched", schedNames, v) }

// capKB and clockMHz are the ordinal value tables of Table 1.
var (
	capKB    = []int{4, 8, 16, 32, 64}
	clockMHz = []float64{31.25, 62.5, 125, 250, 500, 1000}
	prefetch = []int{0, 4, 8}
)

// cardinality gives the number of values of each parameter.
var cardinality = [NumParams]int{
	2, 2, 2, len(capKB), len(capKB), len(clockMHz), len(prefetch),
	len(dataflowNames), len(formatNames), len(schedNames),
}

// Cardinality returns the number of discrete values parameter p can take.
func Cardinality(p Param) int { return cardinality[p] }

// Config is one point of the configuration space: a value index for each
// parameter. Using indices (rather than physical values) keeps the ML
// targets, neighbourhood arithmetic and enumeration uniform across
// categorical and ordinal parameters.
type Config [NumParams]int

// Valid reports whether every value index is within its parameter's range.
func (c Config) Valid() bool {
	for p := Param(0); p < NumParams; p++ {
		if c[p] < 0 || c[p] >= cardinality[p] {
			return false
		}
	}
	return true
}

// L1IsSPM reports whether the L1 banks are configured as scratchpad.
func (c Config) L1IsSPM() bool { return c[L1Type] == SPMMode }

// L1Shared reports whether the L1 layer is shared across a tile's GPEs.
func (c Config) L1Shared() bool { return c[L1Share] == Shared }

// L2Shared reports whether the L2 layer is shared across tiles.
func (c Config) L2Shared() bool { return c[L2Share] == Shared }

// L1CapKB returns the per-bank L1 capacity in kB.
func (c Config) L1CapKB() int { return capKB[c[L1Cap]] }

// L2CapKB returns the per-bank L2 capacity in kB.
func (c Config) L2CapKB() int { return capKB[c[L2Cap]] }

// ClockMHz returns the system clock in MHz.
func (c Config) ClockMHz() float64 { return clockMHz[c[Clock]] }

// ClockHz returns the system clock in Hz.
func (c Config) ClockHz() float64 { return clockMHz[c[Clock]] * 1e6 }

// PrefetchDegree returns the number of cache lines prefetched ahead.
func (c Config) PrefetchDegree() int { return prefetch[c[Prefetch]] }

// DataflowName returns the configured SpMSpM dataflow's short name.
func (c Config) DataflowName() string { return dataflowNames[c[Dataflow]] }

// FormatName returns the configured A-operand storage format's short name.
func (c Config) FormatName() string { return formatNames[c[Format]] }

// SchedName returns the configured scheduling policy's short name.
func (c Config) SchedName() string { return schedNames[c[SchedPolicy]] }

// String renders the configuration compactly, e.g.
// "cache L1:4kB/shr L2:64kB/prv 500MHz pf8 outer/csc/rr". The clock is
// written as fmt's %g writes it.
func (c Config) String() string {
	var buf [64]byte
	b := buf[:0]
	if c.L1IsSPM() {
		b = append(b, "spm L1:"...)
	} else {
		b = append(b, "cache L1:"...)
	}
	b = strconv.AppendInt(b, int64(c.L1CapKB()), 10)
	b = append(b, "kB/"...)
	b = append(b, shareName(c.L1Shared())...)
	b = append(b, " L2:"...)
	b = strconv.AppendInt(b, int64(c.L2CapKB()), 10)
	b = append(b, "kB/"...)
	b = append(b, shareName(c.L2Shared())...)
	b = append(b, ' ')
	b = strconv.AppendFloat(b, c.ClockMHz(), 'g', -1, 64)
	b = append(b, "MHz pf"...)
	b = strconv.AppendInt(b, int64(c.PrefetchDegree()), 10)
	b = append(b, ' ')
	b = append(b, c.DataflowName()...)
	b = append(b, '/')
	b = append(b, c.FormatName()...)
	b = append(b, '/')
	b = append(b, c.SchedName()...)
	return string(b)
}

// shareName is the short name String gives a shared or private layer.
func shareName(shared bool) string {
	if shared {
		return "shr"
	}
	return "prv"
}

// SpaceSize returns the total number of configurations: 3600 hardware
// points (Table 1) × 18 algorithm points (3 dataflows × 3 formats × 2
// scheduling policies) = 64800.
func SpaceSize() int {
	n := 1
	for p := Param(0); p < NumParams; p++ {
		n *= cardinality[p]
	}
	return n
}

// Index returns a unique integer in [0, SpaceSize()) for the configuration.
func (c Config) Index() int {
	idx := 0
	for p := Param(0); p < NumParams; p++ {
		idx = idx*cardinality[p] + c[p]
	}
	return idx
}

// FromIndex is the inverse of Index.
func FromIndex(idx int) Config {
	var c Config
	for p := NumParams - 1; p >= 0; p-- {
		c[p] = idx % cardinality[p]
		idx /= cardinality[p]
	}
	return c
}

// All enumerates the configuration space in Index order. With a fixed
// l1Type (the compile-time parameter) pass it via Filter instead.
func All() []Config {
	out := make([]Config, SpaceSize())
	for i := range out {
		out[i] = FromIndex(i)
	}
	return out
}

// WithL1Type returns all configurations whose L1 type matches t
// (CacheMode or SPMMode) — the runtime-reachable space given the
// compiler's choice.
func WithL1Type(t int) []Config {
	var out []Config
	for i, n := 0, SpaceSize(); i < n; i++ {
		c := FromIndex(i)
		if c[L1Type] == t {
			out = append(out, c)
		}
	}
	return out
}

// Sample draws k distinct configurations uniformly at random from the space
// with the given L1 type fixed, the "random sampling" step of the paper's
// best-configuration search (Section 4.1, step 1).
//
// L1Type is the most significant digit of Index, so the configurations of
// one L1 type are one contiguous index range; Sample shuffles offsets into
// that range and decodes only the k it returns. rand.Shuffle's draws depend
// only on the length, so this picks exactly what shuffling the whole
// WithL1Type slice would.
func Sample(rng *rand.Rand, k, l1Type int) []Config {
	if l1Type < 0 || l1Type >= cardinality[L1Type] {
		return nil
	}
	per := SpaceSize() / cardinality[L1Type]
	if k >= per {
		return WithL1Type(l1Type)
	}
	idx := make([]int32, per)
	for i := range idx {
		idx[i] = int32(i)
	}
	rng.Shuffle(per, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	out := make([]Config, k)
	for i := range out {
		out[i] = FromIndex(l1Type*per + int(idx[i]))
	}
	return out
}

// Neighbors returns the configurations adjacent to c: each runtime
// parameter moved by one step (ordinal) or flipped (categorical), one
// parameter at a time — the "m-dimensional hyper-sphere" of the paper's
// neighbour-evaluation step (Section 4.1, step 2). L1Type is never moved.
func Neighbors(c Config) []Config {
	var out []Config
	for _, p := range RuntimeParams {
		for _, d := range []int{-1, +1} {
			n := c
			n[p] += d
			if n[p] >= 0 && n[p] < cardinality[p] {
				out = append(out, n)
			}
		}
	}
	return out
}

// Sweep returns all configurations obtained by varying parameter p across
// its full range while holding every other parameter of c fixed — the
// "dimension sweep" of Section 4.1, step 3.
func Sweep(c Config, p Param) []Config {
	out := make([]Config, cardinality[p])
	for v := 0; v < cardinality[p]; v++ {
		n := c
		n[p] = v
		out[v] = n
	}
	return out
}

// Standard configurations of Table 4. All use the natural algorithm point
// — outer-product dataflow over a CSC-stored A operand with round-robin
// scheduling — which reproduces the paper's hardware-only action space when
// the algorithm axes are held fixed.
var (
	// Baseline is the best-average static configuration across the broad
	// application set of the Transmuter paper.
	Baseline = Config{CacheMode, Shared, Shared, 0 /*4kB*/, 0 /*4kB*/, 5 /*1GHz*/, 1 /*pf4*/, DFOuter, FmtCSC, SchedRR}
	// BestAvgCache is the best-average static configuration for the sparse
	// kernels of this paper with L1 as cache.
	BestAvgCache = Config{CacheMode, Private, Shared, 0, 0, 5, 0, DFOuter, FmtCSC, SchedRR}
	// BestAvgSPM is the best-average static configuration with L1 as SPM.
	BestAvgSPM = Config{SPMMode, Private, Private, 0, 3 /*32kB*/, 4 /*500MHz*/, 2 /*pf8*/, DFOuter, FmtCSC, SchedRR}
	// MaxCfg sets every ordinal parameter to its maximum with shared L1/L2.
	MaxCfg = Config{CacheMode, Shared, Shared, 4 /*64kB*/, 4, 5, 2, DFOuter, FmtCSC, SchedRR}
	// MaxCfgSPM is MaxCfg with the L1 banks as scratchpad.
	MaxCfgSPM = Config{SPMMode, Shared, Shared, 4, 4, 5, 2, DFOuter, FmtCSC, SchedRR}
)
