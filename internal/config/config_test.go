package config

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSpaceSizeMatchesPaper(t *testing.T) {
	// Table 1's 3600 hardware points × 18 algorithm points (3 dataflows ×
	// 3 formats × 2 scheduling policies).
	if got := SpaceSize(); got != 64800 {
		t.Fatalf("SpaceSize = %d, want 64800", got)
	}
}

func TestIndexRoundTrip(t *testing.T) {
	f := func(raw uint) bool {
		idx := int(raw % uint(SpaceSize()))
		c := FromIndex(idx)
		return c.Valid() && c.Index() == idx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestIndexRoundTripExhaustive walks the entire widened space: Index and
// FromIndex must stay exact inverses at the new SpaceSize.
func TestIndexRoundTripExhaustive(t *testing.T) {
	for i, n := 0, SpaceSize(); i < n; i++ {
		c := FromIndex(i)
		if !c.Valid() {
			t.Fatalf("FromIndex(%d) invalid: %v", i, c)
		}
		if got := c.Index(); got != i {
			t.Fatalf("Index(FromIndex(%d)) = %d", i, got)
		}
	}
}

// TestStringMatchesFmtExhaustive walks the entire space: String must
// render every configuration exactly as the fmt-based text that epoch
// records, goldens and job digests were pinned with.
func TestStringMatchesFmtExhaustive(t *testing.T) {
	mode := func(shared bool) string {
		if shared {
			return "shr"
		}
		return "prv"
	}
	for i, n := 0, SpaceSize(); i < n; i++ {
		c := FromIndex(i)
		l1 := "cache"
		if c.L1IsSPM() {
			l1 = "spm"
		}
		want := fmt.Sprintf("%s L1:%dkB/%s L2:%dkB/%s %gMHz pf%d %s/%s/%s", l1,
			c.L1CapKB(), mode(c.L1Shared()), c.L2CapKB(), mode(c.L2Shared()),
			c.ClockMHz(), c.PrefetchDegree(),
			c.DataflowName(), c.FormatName(), c.SchedName())
		if got := c.String(); got != want {
			t.Fatalf("config %d: String() = %q, want %q", i, got, want)
		}
	}
}

func TestAllUniqueAndValid(t *testing.T) {
	seen := map[int]bool{}
	for _, c := range All() {
		if !c.Valid() {
			t.Fatalf("invalid config %v", c)
		}
		if seen[c.Index()] {
			t.Fatalf("duplicate index %d", c.Index())
		}
		seen[c.Index()] = true
	}
	if len(seen) != 64800 {
		t.Fatalf("enumerated %d configs", len(seen))
	}
}

func TestPhysicalValues(t *testing.T) {
	c := MaxCfg
	if c.L1CapKB() != 64 || c.L2CapKB() != 64 {
		t.Fatalf("MaxCfg capacities %d/%d", c.L1CapKB(), c.L2CapKB())
	}
	if c.ClockMHz() != 1000 || c.PrefetchDegree() != 8 {
		t.Fatalf("MaxCfg clock %v pf %d", c.ClockMHz(), c.PrefetchDegree())
	}
	if !c.L1Shared() || !c.L2Shared() || c.L1IsSPM() {
		t.Fatalf("MaxCfg modes wrong: %v", c)
	}
	b := Baseline
	if b.L1CapKB() != 4 || b.L2CapKB() != 4 || b.ClockMHz() != 1000 || b.PrefetchDegree() != 4 {
		t.Fatalf("Baseline mismatch with Table 4: %v", b)
	}
	s := BestAvgSPM
	if !s.L1IsSPM() || s.L2CapKB() != 32 || s.ClockMHz() != 500 || s.PrefetchDegree() != 8 || s.L2Shared() {
		t.Fatalf("BestAvgSPM mismatch with Table 4: %v", s)
	}
}

func TestWithL1Type(t *testing.T) {
	cache := WithL1Type(CacheMode)
	spm := WithL1Type(SPMMode)
	if len(cache)+len(spm) != 64800 || len(cache) != len(spm) {
		t.Fatalf("split %d/%d", len(cache), len(spm))
	}
	for _, c := range cache {
		if c.L1IsSPM() {
			t.Fatal("SPM config in cache set")
		}
	}
}

func TestSampleDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := Sample(rng, 100, CacheMode)
	if len(s) != 100 {
		t.Fatalf("sample size %d", len(s))
	}
	seen := map[int]bool{}
	for _, c := range s {
		if c[L1Type] != CacheMode {
			t.Fatal("wrong L1 type sampled")
		}
		if seen[c.Index()] {
			t.Fatal("duplicate sample")
		}
		seen[c.Index()] = true
	}
	// Requesting more than the space yields the whole space.
	if got := Sample(rng, 100000, SPMMode); len(got) != 32400 {
		t.Fatalf("oversized sample %d", len(got))
	}
}

// sampleReference is Sample as first written: shuffle the whole L1-type
// slice of the space and keep its first k configurations.
func sampleReference(rng *rand.Rand, k, l1Type int) []Config {
	space := WithL1Type(l1Type)
	if k >= len(space) {
		return space
	}
	rng.Shuffle(len(space), func(i, j int) { space[i], space[j] = space[j], space[i] })
	return space[:k]
}

// TestSampleMatchesReference: Sample returns exactly the reference's
// configurations, in order, and leaves the generator in the same state.
func TestSampleMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, l1 := range []int{CacheMode, SPMMode, 2} {
			for _, k := range []int{0, 1, 7, 256, 32399, 32400, 100000} {
				got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				g, w := Sample(got, k, l1), sampleReference(want, k, l1)
				if len(g) != len(w) {
					t.Fatalf("seed %d l1 %d k %d: %d configs, reference %d", seed, l1, k, len(g), len(w))
				}
				for i := range g {
					if g[i] != w[i] {
						t.Fatalf("seed %d l1 %d k %d: config %d is %v, reference %v", seed, l1, k, i, g[i], w[i])
					}
				}
				if got.Int63() != want.Int63() {
					t.Fatalf("seed %d l1 %d k %d: generator state differs from the reference's", seed, l1, k)
				}
			}
		}
	}
}

func TestNeighborsAdjacency(t *testing.T) {
	c := Baseline
	for _, n := range Neighbors(c) {
		if !n.Valid() {
			t.Fatalf("invalid neighbor %v", n)
		}
		diff, dist := 0, 0
		for p := Param(0); p < NumParams; p++ {
			if n[p] != c[p] {
				diff++
				d := n[p] - c[p]
				if d < 0 {
					d = -d
				}
				dist += d
			}
		}
		if diff != 1 || dist != 1 {
			t.Fatalf("neighbor %v not unit-adjacent to %v", n, c)
		}
		if n[L1Type] != c[L1Type] {
			t.Fatal("neighbor changed compile-time L1 type")
		}
	}
	// Interior point: binary sharing params contribute one move each, the
	// four interior hardware ordinals two each, dataflow/format (interior at
	// value 1) two each, and the binary scheduler one:
	// 1+1+2+2+2+2 + 2+2+1 = 15.
	interior := Config{CacheMode, Shared, Shared, 2, 2, 2, 1, DFInner, FmtCSC, SchedRR}
	if got := len(Neighbors(interior)); got != 15 {
		t.Fatalf("interior neighbor count %d, want 15", got)
	}
}

func TestSweepCoversDimension(t *testing.T) {
	c := Baseline
	sw := Sweep(c, Clock)
	if len(sw) != 6 {
		t.Fatalf("clock sweep size %d", len(sw))
	}
	seen := map[float64]bool{}
	for _, s := range sw {
		seen[s.ClockMHz()] = true
		for p := Param(0); p < NumParams; p++ {
			if p != Clock && s[p] != c[p] {
				t.Fatal("sweep changed another dimension")
			}
		}
	}
	if len(seen) != 6 {
		t.Fatalf("sweep values not distinct: %v", seen)
	}
}

func TestTransitionClass(t *testing.T) {
	cases := []struct {
		p        Param
		from, to int
		want     CostClass
	}{
		{Clock, 5, 0, SuperFine},
		{Prefetch, 0, 2, SuperFine},
		{L1Cap, 0, 3, SuperFine}, // increase: no flush
		{L1Cap, 3, 0, Fine},      // decrease: flush
		{L1Share, Shared, Private, Fine},
		{L2Share, Private, Shared, Fine},
		{L1Type, CacheMode, SPMMode, Coarse},
		{Clock, 2, 2, NoChange},
		{Dataflow, DFOuter, DFInner, Algorithmic},
		{Dataflow, DFRow, DFOuter, Algorithmic},
		{Format, FmtCSR, FmtCSC, Algorithmic},
		{Format, FmtCOO, FmtCOO, NoChange},
		{SchedPolicy, SchedRR, SchedLL, SuperFine},
	}
	for _, c := range cases {
		if got := TransitionClass(c.p, c.from, c.to); got != c.want {
			t.Errorf("TransitionClass(%v,%d,%d) = %v, want %v", c.p, c.from, c.to, got, c.want)
		}
	}
}

func TestClassify(t *testing.T) {
	from := Baseline
	to := from
	to[Clock] = 3
	to[L2Cap] = 4 // increase
	tr := Classify(from, to)
	if tr.FlushL1 || tr.FlushL2 || tr.Coarse {
		t.Fatalf("unexpected flush/coarse: %+v", tr)
	}
	if tr.SuperFineChanges != 2 || len(tr.Changed) != 2 {
		t.Fatalf("want 2 super-fine changes: %+v", tr)
	}

	to = from
	to[L1Share] = Private
	to[L2Cap] = 0 // same value → no change
	tr = Classify(from, to)
	if !tr.FlushL1 || tr.FlushL2 {
		t.Fatalf("L1 sharing change must flush L1 only: %+v", tr)
	}

	to = from
	to[L1Type] = SPMMode
	if tr = Classify(from, to); !tr.Coarse {
		t.Fatalf("L1 type change must be coarse: %+v", tr)
	}

	if !Classify(from, from).IsNoop() {
		t.Fatal("identity transition should be a no-op")
	}
}

func TestClassifyAlgorithmic(t *testing.T) {
	from := Baseline

	// Dataflow change alone: algorithmic, flushes both levels, no format
	// conversion component.
	to := from
	to[Dataflow] = DFInner
	tr := Classify(from, to)
	if !tr.Algorithmic || !tr.DataflowChanged || tr.FormatChanged {
		t.Fatalf("dataflow switch misclassified: %+v", tr)
	}
	if !tr.FlushL1 || !tr.FlushL2 {
		t.Fatalf("algorithmic switch must flush both levels: %+v", tr)
	}
	if got := tr.ConversionCycles(1000); got != AlgoSwapCycles {
		t.Fatalf("dataflow-only conversion cycles = %v, want %v", got, float64(AlgoSwapCycles))
	}

	// Format change: swap charge plus per-nonzero conversion.
	to = from
	to[Format] = FmtCSR // Baseline carries FmtCSC
	tr = Classify(from, to)
	if !tr.FormatChanged || tr.FormatFrom != FmtCSC || tr.FormatTo != FmtCSR {
		t.Fatalf("format switch misclassified: %+v", tr)
	}
	want := float64(AlgoSwapCycles) + 6*1000
	if got := tr.ConversionCycles(1000); got != want {
		t.Fatalf("CSC→CSR conversion cycles = %v, want %v", got, want)
	}

	// Scheduling policy is super-fine: no flush, no conversion.
	to = from
	to[SchedPolicy] = SchedLL
	tr = Classify(from, to)
	if tr.Algorithmic || tr.FlushL1 || tr.FlushL2 || tr.SuperFineChanges != 1 {
		t.Fatalf("sched switch must be super-fine: %+v", tr)
	}
	if got := tr.ConversionCycles(1000); got != 0 {
		t.Fatalf("sched switch conversion cycles = %v, want 0", got)
	}
}

func TestConversionCyclesPerNNZ(t *testing.T) {
	cases := []struct {
		from, to int
		want     float64
	}{
		{FmtCSR, FmtCSR, 0},
		{FmtCSR, FmtCSC, 6},
		{FmtCSC, FmtCSR, 6},
		{FmtCSR, FmtCOO, 2},
		{FmtCSC, FmtCOO, 2},
		{FmtCOO, FmtCSR, 4},
		{FmtCOO, FmtCSC, 4},
	}
	for _, c := range cases {
		if got := ConversionCyclesPerNNZ(c.from, c.to); got != c.want {
			t.Errorf("ConversionCyclesPerNNZ(%d,%d) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

func TestCostClassString(t *testing.T) {
	for _, c := range []CostClass{NoChange, SuperFine, Fine, Algorithmic, Coarse} {
		if c.String() == "unknown" {
			t.Fatalf("missing name for %d", c)
		}
	}
}

func TestParamString(t *testing.T) {
	seen := map[string]bool{}
	for p := Param(0); p < NumParams; p++ {
		s := p.String()
		if seen[s] {
			t.Fatalf("duplicate param name %s", s)
		}
		seen[s] = true
	}
}

// Property: Classify is symmetric in which parameters changed.
func TestQuickClassifyChangedSet(t *testing.T) {
	f := func(a, b uint) bool {
		ca := FromIndex(int(a % uint(SpaceSize())))
		cb := FromIndex(int(b % uint(SpaceSize())))
		tr := Classify(ca, cb)
		n := 0
		for p := Param(0); p < NumParams; p++ {
			if ca[p] != cb[p] {
				n++
			}
		}
		return n == len(tr.Changed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
