package verify

import (
	"context"
	"testing"

	"sparseadapt/internal/config"
	"sparseadapt/internal/engine"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/oracle"
)

// TestCorpusDeterminismAcrossWorkers records a corpus workload's oracle
// grid at worker counts 1 and 4 and requires bit-identical results: the
// parallel engine must not leak scheduling into simulation outcomes. CI
// additionally runs the whole verify package with -count=2 at both worker
// counts.
func TestCorpusDeterminismAcrossWorkers(t *testing.T) {
	s, err := ScenarioByName("spmspv-rmat-maxcfg")
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.Workload()
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []config.Config{config.Baseline, config.BestAvgCache, config.MaxCfg}
	var recs []*oracle.Recording
	for _, workers := range []int{1, 4} {
		eng := engine.New(engine.Options{Workers: workers})
		rec, err := oracle.RecordSourceEngine(context.Background(), eng, nil, corpusChip, corpusBW, kernels.Fixed(w), s.EpochScale, cfgs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		recs = append(recs, rec)
	}
	requireIdenticalGrids(t, recs[0], recs[1])
}

// TestSourceDeterminismAcrossWorkers is the widened-action-space
// counterpart: RecordSource prices configurations spanning every dataflow,
// format and scheduling policy — each on its own lazily traced kernel
// variant — and the records must still be bit-identical at worker counts
// 1 and 4 (variant tracing must not race or depend on schedule order).
func TestSourceDeterminismAcrossWorkers(t *testing.T) {
	s, err := ScenarioByName("spmspm-uniform-format-switch")
	if err != nil {
		t.Fatal(err)
	}
	src, err := s.Source()
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []config.Config{
		config.Baseline,
		withAlgo(config.Baseline, config.DFInner, config.FmtCSR, config.SchedLL),
		withAlgo(config.BestAvgCache, config.DFRow, config.FmtCOO, config.SchedRR),
		withAlgo(config.MaxCfg, config.DFOuter, config.FmtCSR, config.SchedLL),
	}
	var recs []*oracle.Recording
	for _, workers := range []int{1, 4} {
		eng := engine.New(engine.Options{Workers: workers})
		rec, err := oracle.RecordSourceEngine(context.Background(), eng, nil, corpusChip, corpusBW, src, s.EpochScale, cfgs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		recs = append(recs, rec)
	}
	requireIdenticalGrids(t, recs[0], recs[1])
}

func requireIdenticalGrids(t *testing.T, a, b *oracle.Recording) {
	t.Helper()
	if len(a.Grid) != len(b.Grid) {
		t.Fatalf("grid rows differ: %d vs %d", len(a.Grid), len(b.Grid))
	}
	for s := range a.Grid {
		if len(a.Grid[s]) != len(b.Grid[s]) {
			t.Fatalf("config %d: epoch counts differ: %d vs %d", s, len(a.Grid[s]), len(b.Grid[s]))
		}
		for e := range a.Grid[s] {
			if a.Grid[s][e] != b.Grid[s][e] {
				t.Errorf("config %d epoch %d: 1-worker and 4-worker records differ:\n%+v\n%+v",
					s, e, a.Grid[s][e], b.Grid[s][e])
			}
		}
	}
}
