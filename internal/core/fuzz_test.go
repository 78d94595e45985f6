package core

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sparseadapt/internal/config"
	"sparseadapt/internal/fault"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/ml"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

// fuzzSeedModel marshals a tiny real ensemble so the fuzzer starts from a
// structurally valid artifact.
func fuzzSeedModel(f *testing.F) []byte {
	f.Helper()
	x := [][]float64{make([]float64, NumFeatures), make([]float64, NumFeatures)}
	x[1][0] = 1
	tree, err := ml.TrainTree(x, []int{0, 1}, ml.TreeParams{MinSamplesLeaf: 1})
	if err != nil {
		f.Fatal(err)
	}
	e := &Ensemble{Mode: power.EnergyEfficient, Trees: map[config.Param]*ml.Tree{config.Clock: tree}}
	data, err := json.Marshal(e)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzLoadModelJSON hardens model deserialization: a model file is an
// untrusted artifact, and whatever UnmarshalJSON accepts must drive Predict
// without panicking and only ever emit valid configurations.
func FuzzLoadModelJSON(f *testing.F) {
	f.Add(fuzzSeedModel(f))
	f.Add([]byte(`{"mode":0,"trees":{}}`))
	f.Add([]byte(`{"mode":1,"trees":{"bogus-param":{}}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"mode":0,"trees":{"clock":{"n_features":-1,"n_classes":2,"nodes":[]}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var e Ensemble
		if err := json.Unmarshal(data, &e); err != nil {
			return
		}
		for _, cur := range []config.Config{config.Baseline, config.BestAvgSPM, config.MaxCfg} {
			got := e.Predict(cur, sim.Counters{})
			if !got.Valid() {
				t.Fatalf("accepted model predicted invalid config %v from %v", got, cur)
			}
		}
	})
}

// FuzzDecodeCheckpoint hardens checkpoint recovery: a checkpoint is
// whatever survived a crash, and DecodeCheckpoint must reject anything
// inconsistent without panicking.
func FuzzDecodeCheckpoint(f *testing.F) {
	valid, err := json.Marshal(&Checkpoint{
		Version: 1, Epoch: 1, Start: config.Baseline, Next: config.Baseline,
		Epochs: []EpochLog{{Config: config.Baseline}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"epoch":3,"epochs":[]}`))
	f.Add([]byte(`{"version":1,"epoch":1,"start":[9,9,9,9,9,9,9],"next":[0,0,0,0,0,5,1],"epochs":[{}]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		if ck.Epoch != len(ck.Epochs) {
			t.Fatalf("accepted checkpoint with %d epochs claiming %d completed", len(ck.Epochs), ck.Epoch)
		}
		if !ck.Start.Valid() || !ck.Next.Valid() {
			t.Fatalf("accepted checkpoint with invalid configs %v -> %v", ck.Start, ck.Next)
		}
	})
}

// jumpyModel trains every parameter's tree on random labels over random
// configurations and plausible telemetry, so its predictions jump with
// what it sees: a stress model for the control loop, not a controller.
func jumpyModel(tb testing.TB) *Ensemble {
	tb.Helper()
	rng := rand.New(rand.NewSource(11))
	x := make([][]float64, 96)
	for i := range x {
		f := make([]float64, sim.NumFeatures)
		for j := range f {
			f[j] = counterBounds[j][0] + rng.Float64()*(counterBounds[j][1]-counterBounds[j][0])
		}
		x[i] = BuildFeatures(config.Sample(rng, 1, config.CacheMode)[0], sim.CountersFromFeatures(f))
	}
	ens := &Ensemble{Trees: map[config.Param]*ml.Tree{}, Mode: power.EnergyEfficient}
	for _, p := range config.RuntimeParams {
		y := make([]int, len(x))
		for i := range y {
			y[i] = rng.Intn(config.Cardinality(p))
		}
		tree, err := ml.TrainTree(x, y, ml.TreeParams{MaxDepth: 5, MinSamplesLeaf: 2})
		if err != nil {
			tb.Fatal(err)
		}
		ens.Trees[p] = tree
	}
	return ens
}

// cancelAt cancels its run's context while epoch k-1's telemetry is read,
// so Drive stops the run at boundary k.
type cancelAt struct {
	FaultInjector
	k      int
	cancel context.CancelFunc
}

func (c cancelAt) PerturbTelemetry(epoch int, x sim.Counters) (sim.Counters, []string) {
	if epoch == c.k-1 {
		c.cancel()
	}
	return c.FaultInjector.PerturbTelemetry(epoch, x)
}

// resumeCase is one crash-and-recover drill: a resilient run under spec
// from start, interrupted after k epochs.
type resumeCase struct {
	model *Ensemble
	w     kernels.Workload
	opts  ResilientOptions
	spec  fault.Spec
	start config.Config
	k     int
}

// run executes the case from a fresh machine and injector, cancelling at
// epoch cancelK when it is positive, and resuming from ck when non-nil.
func (rc resumeCase) run(t *testing.T, opts ResilientOptions, cancelK int, ck *Checkpoint) (RunResult, error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := NewResilientController(rc.model, opts)
	c.Inject = fault.New(rc.spec)
	if cancelK > 0 {
		c.Inject = cancelAt{c.Inject, cancelK, cancel}
	}
	m := sim.New(chip, sim.DefaultBandwidth, rc.start)
	if ck != nil {
		return c.Resume(ctx, m, rc.w, ck)
	}
	return c.Run(ctx, m, rc.w)
}

// check requires that the case's run stopped after k epochs — by
// StopAfter, and by cancellation — equals the uninterrupted run's first k
// epochs, and that resuming either from the checkpoint it left on disk
// equals the uninterrupted run, its checkpoint count aside.
func (rc resumeCase) check(t *testing.T) {
	t.Helper()
	full, err := rc.run(t, rc.opts, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, cancelled := range []bool{false, true} {
		opts := rc.opts
		opts.CheckpointPath = filepath.Join(dir, "stopped.ck")
		cancelK := 0
		if cancelled {
			opts.CheckpointPath = filepath.Join(dir, "cancelled.ck")
			cancelK = rc.k
		} else {
			opts.StopAfter = rc.k
		}
		part, err := rc.run(t, opts, cancelK, nil)
		if cancelled && rc.k < len(full.Epochs) && !errors.Is(err, context.Canceled) {
			t.Fatalf("run cancelled at epoch %d returned %v", rc.k, err)
		} else if !cancelled && err != nil {
			t.Fatal(err)
		}
		var prefix power.Metrics
		for _, e := range full.Epochs[:rc.k] {
			prefix.Add(e.Metrics)
		}
		if !reflect.DeepEqual(part.Epochs, full.Epochs[:rc.k]) || part.Total != prefix {
			t.Fatalf("run interrupted at epoch %d (cancelled=%v) is not the uninterrupted run's prefix", rc.k, cancelled)
		}
		ck, err := LoadCheckpoint(opts.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		opts.StopAfter = 0
		res, err := rc.run(t, opts, 0, ck)
		if err != nil {
			t.Fatal(err)
		}
		res.Resilience.Checkpoints, full.Resilience.Checkpoints = 0, 0
		if !reflect.DeepEqual(res, full) {
			for i := range full.Epochs {
				if i < len(res.Epochs) && res.Epochs[i] != full.Epochs[i] {
					t.Fatalf("resumed from epoch %d (cancelled=%v): epoch %d diverges:\nresumed:   %+v\nreference: %+v", ck.Epoch, cancelled, i, res.Epochs[i], full.Epochs[i])
				}
			}
			t.Fatalf("resumed from epoch %d (cancelled=%v) diverges:\nresumed:   %+v %d %+v\nreference: %+v %d %+v",
				ck.Epoch, cancelled, res.Total, res.Reconfig, res.Resilience, full.Total, full.Reconfig, full.Resilience)
		}
		if err := os.Remove(opts.CheckpointPath); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzResumeMatchesUninterrupted drives crash-and-recover drills over
// fault rates and seed, policy, start configuration, checkpoint cadence
// and the epoch the run is interrupted at (see resumeCase.check).
func FuzzResumeMatchesUninterrupted(f *testing.F) {
	f.Add(int64(9), []byte{10, 0, 0, 20, 10, 20, 20, 20, 10, 8}, uint8(2), int64(1), uint8(7), uint8(15))
	f.Add(int64(5), []byte{0, 30, 10, 0, 30, 0, 40, 50, 30, 3}, uint8(0), int64(2), uint8(0), uint8(40))
	f.Add(int64(1), []byte{}, uint8(1), int64(3), uint8(3), uint8(0))
	// ≈38 epochs at scale 0.1: long enough for watchdog trips, cooldowns
	// and several checkpoints, short enough to fuzz quickly.
	rng := rand.New(rand.NewSource(3))
	am := matrix.Uniform(rng, 256, 256, 12000)
	_, w, err := kernels.SpMSpV(am.ToCSC(), matrix.RandomVec(rng, 256, 0.5), chip.NGPE(), chip.Tiles)
	if err != nil {
		f.Fatal(err)
	}
	n := len(w.Epochs(0.1))
	model := jumpyModel(f)
	f.Fuzz(func(t *testing.T, seed int64, rates []byte, policy uint8, start int64, every, stop uint8) {
		spec := fault.Spec{Seed: seed}
		for i, r := range []*float64{&spec.NaN, &spec.Inf, &spec.Zero, &spec.Stuck, &spec.Drop, &spec.Noise, &spec.Wild, &spec.RcDrop, &spec.RcPenalty, &spec.PenaltyMult} {
			if i < len(rates) {
				*r = float64(rates[i]%64) / 100
			}
		}
		spec.PenaltyMult *= 25
		rc := resumeCase{model: model, w: w, spec: spec, k: 1 + int(stop)%n,
			start: config.Sample(rand.New(rand.NewSource(start)), 1, config.CacheMode)[0]}
		rc.opts = DefaultResilientOptions()
		rc.opts.EpochScale = 0.1
		rc.opts.Policy = Policy(policy % 3)
		rc.opts.CheckpointEvery = 1 + int(every)%rc.k
		rc.check(t)
	})
}
