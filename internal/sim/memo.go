package sim

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"sparseadapt/internal/config"
	"sparseadapt/internal/power"
)

// runKey identifies one memoizable epoch-sequence replay: the content
// fingerprint of the trace, the chip topology, the off-chip bandwidth, the
// configuration ordinal, and a hash of the exact epoch ranges replayed.
// Together these determine every byte of the result (replay is a pure
// function of them), which is what makes memoization semantics-preserving.
type runKey struct {
	traceFP  uint64
	tiles    int
	gpt      int
	bwBits   uint64
	cfgIndex int
	epsHash  uint64
}

// EpochsHash fingerprints an epoch-range slice with FNV-1a over the range
// boundaries and phase labels (FPOps is derived from the trace and the
// boundaries, but is mixed in anyway so a changed segmentation policy can
// never alias).
func EpochsHash(eps []EpochRange) uint64 {
	const (
		offset64 = 1469598103934665603
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	mix(uint64(len(eps)))
	for _, ep := range eps {
		mix(uint64(ep.Start))
		mix(uint64(ep.End))
		mix(uint64(ep.FPOps))
		mix(uint64(len(ep.Phase)))
		for i := 0; i < len(ep.Phase); i++ {
			h ^= uint64(ep.Phase[i])
			h *= prime64
		}
	}
	return h
}

// RunMemo is a bounded, concurrency-safe memo table for whole epoch-sequence
// replays, keyed on (trace fingerprint, chip, bandwidth, configuration,
// epoch ranges). Oracle recordings and trainer sweeps evaluate the same
// (workload, config) pair repeatedly — across experiment modes, dataset
// passes and daemon jobs — and a replay is a pure function of the key, so a
// hit returns results byte-identical to a fresh simulation at a tiny
// fraction of the cost.
//
// The table is bounded by total stored EpochResult values rather than entry
// count: entries are proportional to their epoch count in size, and
// paper-scale recordings run thousands of epochs per row. When an insert
// would exceed the budget, arbitrary entries are evicted until it fits
// (random replacement; reuse within one process is typically all-or-nothing
// per workload, so recency tracking buys little).
type RunMemo struct {
	mu      sync.Mutex
	budget  int // max total EpochResult values stored
	stored  int
	entries map[runKey][]EpochResult

	hits   atomic.Int64
	misses atomic.Int64
}

// DefaultMemoBudget bounds the default shared memo to ~100k stored epoch
// results (order 40 MB), enough for hundreds of test-scale rows or a few
// dozen paper-scale ones.
const DefaultMemoBudget = 100_000

// NewRunMemo creates a memo bounded to roughly budget stored epoch results;
// budget <= 0 selects DefaultMemoBudget.
func NewRunMemo(budget int) *RunMemo {
	if budget <= 0 {
		budget = DefaultMemoBudget
	}
	return &RunMemo{budget: budget, entries: map[runKey][]EpochResult{}}
}

var sharedMemo = NewRunMemo(0)

// SharedRunMemo returns the process-wide replay memo used by the CLI and
// daemon paths. Sharing one table lets, e.g., the PP and EE dataset passes
// of a trainer sweep reuse each other's replays.
func SharedRunMemo() *RunMemo { return sharedMemo }

// Counts reports cumulative hits and misses (for telemetry and tests).
func (mm *RunMemo) Counts() (hits, misses int64) {
	return mm.hits.Load(), mm.misses.Load()
}

// Len reports the number of memoized entries.
func (mm *RunMemo) Len() int {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return len(mm.entries)
}

func (mm *RunMemo) get(k runKey) ([]EpochResult, bool) {
	mm.mu.Lock()
	row, ok := mm.entries[k]
	mm.mu.Unlock()
	if !ok {
		mm.misses.Add(1)
		return nil, false
	}
	mm.hits.Add(1)
	// Copy on the way out: EpochResult is a value type, but callers own
	// their slice and may reorder or truncate it.
	out := make([]EpochResult, len(row))
	copy(out, row)
	return out, true
}

func (mm *RunMemo) put(k runKey, row []EpochResult) {
	if len(row) > mm.budget {
		return // larger than the whole table; never cacheable
	}
	cp := make([]EpochResult, len(row))
	copy(cp, row)
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if old, ok := mm.entries[k]; ok {
		mm.stored -= len(old)
	}
	for mm.stored+len(cp) > mm.budget {
		for ek, ev := range mm.entries {
			delete(mm.entries, ek)
			mm.stored -= len(ev)
			break
		}
	}
	mm.entries[k] = cp
	mm.stored += len(cp)
}

// RunEpochs replays eps on a fresh machine under (chip, bw, cfg), returning
// one EpochResult per range. When memo is non-nil the replay is memoized on
// the trace's content fingerprint; a hit skips simulation entirely and is
// byte-identical to the cold path. ctx (which may be nil) is checked every
// 64 epochs so long rows abort promptly on cancellation.
//
// This is the hot primitive behind oracle recording rows and trainer phase
// evaluations; it deliberately starts from a cold machine each time, which
// is exactly what those callers do and what makes the result a pure
// function of the key.
func RunEpochs(ctx context.Context, memo *RunMemo, chip power.Chip, bw float64, cfg config.Config, tr *Trace, eps []EpochRange) ([]EpochResult, error) {
	var key runKey
	if memo != nil {
		key = runKey{
			traceFP:  tr.Fingerprint(),
			tiles:    chip.Tiles,
			gpt:      chip.GPEsPerTile,
			bwBits:   math.Float64bits(bw),
			cfgIndex: cfg.Index(),
			epsHash:  EpochsHash(eps),
		}
		if row, ok := memo.get(key); ok {
			return row, nil
		}
	}
	m := New(chip, bw, cfg)
	m.BindTrace(tr)
	row := make([]EpochResult, len(eps))
	for i, ep := range eps {
		if ctx != nil && i%64 == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		row[i] = m.RunEpoch(ep)
	}
	if memo != nil {
		memo.put(key, row)
	}
	return row, nil
}
