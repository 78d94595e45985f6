package fault

import (
	"fmt"
	"sync/atomic"
	"time"
)

// ChaosSpec extends the fault harness beyond the simulated machine into
// the service layer: it declares failures of the *infrastructure* running
// jobs — the executor, the journal, the result cache — rather than of the
// simulated hardware. Like Spec, every decision is a pure hash of
// (seed, job, attempt, channel), so a chaos run is replayable: the same
// seed and job IDs produce the same panics, the same journal errors and
// the same mid-epoch kills, which is what lets the soak test assert exact
// outcomes instead of distributions.
type ChaosSpec struct {
	// ExecPanic is the per-attempt probability that a job execution panics
	// at the top of its compute function.
	ExecPanic float64 `json:"exec-panic,omitempty"`
	// FailFirst forces the first N attempts of every job to panic — the
	// deterministic transient failure that exercises retry-then-succeed.
	FailFirst float64 `json:"fail-first,omitempty"`
	// Poison is the per-job probability that a job panics on *every*
	// attempt — the poison job the quarantine exists for.
	Poison float64 `json:"poison,omitempty"`
	// KillEpoch is the per-attempt probability that execution is killed
	// mid-epoch (a panic from inside the epoch stream).
	KillEpoch float64 `json:"kill-epoch,omitempty"`
	// JournalErr and JournalSlow are per-write probabilities that a journal
	// append fails or stalls for SlowMs milliseconds (default 5).
	JournalErr  float64 `json:"journal-err,omitempty"`
	JournalSlow float64 `json:"journal-slow,omitempty"`
	SlowMs      float64 `json:"slow-ms,omitempty"`
	// CacheCorrupt is the per-job probability that, after a successful run,
	// the job's on-disk cache entry is flipped — the bit-rot model for the
	// content-addressed result store.
	CacheCorrupt float64 `json:"cache-corrupt,omitempty"`
	// Seed fixes the decision stream.
	Seed int64 `json:"seed,omitempty"`
}

// IsZero reports whether the spec injects nothing.
func (s ChaosSpec) IsZero() bool {
	return s.ExecPanic == 0 && s.FailFirst == 0 && s.Poison == 0 && s.KillEpoch == 0 &&
		s.JournalErr == 0 && s.JournalSlow == 0 && s.CacheCorrupt == 0
}

// chaosFields maps spec keys to destinations, shared by ParseChaosSpec and
// String so the two cannot drift (same pattern as Spec).
func chaosFields(s *ChaosSpec) map[string]*float64 {
	return map[string]*float64{
		"exec-panic":    &s.ExecPanic,
		"fail-first":    &s.FailFirst,
		"poison":        &s.Poison,
		"kill-epoch":    &s.KillEpoch,
		"journal-err":   &s.JournalErr,
		"journal-slow":  &s.JournalSlow,
		"slow-ms":       &s.SlowMs,
		"cache-corrupt": &s.CacheCorrupt,
	}
}

// chaosSyntax is how ParseChaosSpec reads its clauses.
var chaosSyntax = syntax{clause: "chaos clause", seed: "chaos seed", class: "chaos class", unbounded: [2]string{"slow-ms", "fail-first"}}

// ParseChaosSpec parses the CLI chaos spec: comma-separated key=value
// pairs, e.g. "exec-panic=0.2,journal-err=0.05,poison=0.1,seed=7".
func ParseChaosSpec(text string) (ChaosSpec, error) {
	var s ChaosSpec
	if err := chaosSyntax.parse(text, chaosFields(&s), &s.Seed); err != nil {
		return ChaosSpec{}, err
	}
	return s, nil
}

// String renders the spec in ParseChaosSpec syntax. A spec ParseChaosSpec
// accepted re-parses from its String to an equal spec, except the zero
// spec, which renders as "none" and which ParseChaosSpec does not accept.
func (s ChaosSpec) String() string { return render(chaosFields(&s), s.Seed) }

// Chaos hash channels, disjoint from the Injector's epoch channels.
const (
	ccExec = iota + 64
	ccPoison
	ccKill
	ccKillEpoch
	ccJournalErr
	ccJournalSlow
	ccCache
)

// ChaosCounts reports how often each chaos class has fired — the soak
// test's ledger for asserting injected damage actually happened.
type ChaosCounts struct {
	ExecPanics, KillEpochs, JournalErrs, JournalSlows, CacheCorrupts int64
}

// Chaos makes the deterministic injection decisions a ChaosSpec declares.
// A nil *Chaos is a valid no-op injector, so call sites need no guards.
// All methods are safe for concurrent use: decisions are pure hashes and
// the only mutable state is atomic fire counters (plus the journal-write
// ordinal, which is the one intentionally order-dependent stream — journal
// faults depend on write order, which a concurrent server does not fix).
type Chaos struct {
	spec ChaosSpec

	journalOps atomic.Int64
	counts     struct {
		execPanics, killEpochs, journalErrs, journalSlows, cacheCorrupts atomic.Int64
	}
}

// NewChaos builds an injector for the spec (nil when the spec is zero, so
// `fault.NewChaos(spec)` wires straight into an optional config field).
func NewChaos(spec ChaosSpec) *Chaos {
	if spec.IsZero() {
		return nil
	}
	if spec.SlowMs <= 0 {
		spec.SlowMs = 5
	}
	return &Chaos{spec: spec}
}

// Spec returns the injector's spec (zero for a nil injector).
func (c *Chaos) Spec() ChaosSpec {
	if c == nil {
		return ChaosSpec{}
	}
	return c.spec
}

// Counts returns how often each class has fired.
func (c *Chaos) Counts() ChaosCounts {
	if c == nil {
		return ChaosCounts{}
	}
	return ChaosCounts{
		ExecPanics:    c.counts.execPanics.Load(),
		KillEpochs:    c.counts.killEpochs.Load(),
		JournalErrs:   c.counts.journalErrs.Load(),
		JournalSlows:  c.counts.journalSlows.Load(),
		CacheCorrupts: c.counts.cacheCorrupts.Load(),
	}
}

// fnv1a hashes a job ID into the decision stream.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// uniform derives a deterministic value in [0, 1) for (job, channel, lane).
func (c *Chaos) uniform(job string, channel, lane int) float64 {
	h := splitmix64(uint64(c.spec.Seed))
	h = splitmix64(h ^ fnv1a(job))
	h = splitmix64(h ^ uint64(channel)<<32 ^ uint64(lane))
	return float64(h>>11) / float64(1<<53)
}

func (c *Chaos) hit(p float64, job string, channel, lane int) bool {
	return p > 0 && c.uniform(job, channel, lane) < p
}

// Poisoned reports whether the job is a poison job: every one of its
// attempts will panic, so it must end up quarantined. The decision hashes
// the job ID alone, making the poisoned set queryable by tests.
func (c *Chaos) Poisoned(jobID string) bool {
	if c == nil {
		return false
	}
	return c.hit(c.spec.Poison, jobID, ccPoison, 0)
}

// ExecPanic reports whether this attempt of the job must panic: poison
// jobs always do, FailFirst forces the first N attempts of every job, and
// ExecPanic adds per-attempt randomness on top.
func (c *Chaos) ExecPanic(jobID string, attempt int) bool {
	if c == nil {
		return false
	}
	fire := c.Poisoned(jobID) ||
		attempt <= int(c.spec.FailFirst) ||
		c.hit(c.spec.ExecPanic, jobID, ccExec, attempt)
	if fire {
		c.counts.execPanics.Add(1)
	}
	return fire
}

// KillAtEpoch decides whether this attempt is killed mid-epoch and, if so,
// at which epoch ordinal (1-based, within the first 8 epochs).
func (c *Chaos) KillAtEpoch(jobID string, attempt int) (epoch int, ok bool) {
	if c == nil || !c.hit(c.spec.KillEpoch, jobID, ccKill, attempt) {
		return 0, false
	}
	c.counts.killEpochs.Add(1)
	return 1 + int(c.uniform(jobID, ccKillEpoch, attempt)*8), true
}

// JournalFault is the store's FaultHook: it stalls and/or fails journal
// writes by their global ordinal. Returned errors carry the "chaos:"
// prefix so logs distinguish injected failures from real ones.
func (c *Chaos) JournalFault(op string) error {
	if c == nil {
		return nil
	}
	n := int(c.journalOps.Add(1))
	if c.hit(c.spec.JournalSlow, op, ccJournalSlow, n) {
		c.counts.journalSlows.Add(1)
		time.Sleep(time.Duration(c.spec.SlowMs * float64(time.Millisecond)))
	}
	if c.hit(c.spec.JournalErr, op, ccJournalErr, n) {
		c.counts.journalErrs.Add(1)
		return fmt.Errorf("chaos: injected journal %s error (write %d)", op, n)
	}
	return nil
}

// CorruptCache reports whether the job's on-disk cache entry should be
// corrupted after a successful run.
func (c *Chaos) CorruptCache(jobID string) bool {
	if c == nil || !c.hit(c.spec.CacheCorrupt, jobID, ccCache, 0) {
		return false
	}
	c.counts.cacheCorrupts.Add(1)
	return true
}
