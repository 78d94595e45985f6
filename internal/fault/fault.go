// Package fault is the fault-injection harness for the SparseAdapt
// feedback loop. It perturbs the three places a real deployment fails —
// telemetry (the counters the controller reads), the model (its
// predictions, or the file it was loaded from) and reconfiguration (a knob
// write that silently doesn't take, or takes at a multiple of its cost) —
// so the resilience layer in internal/core can be exercised under every
// failure class the paper's "no worse than the best static config" claim
// must survive.
//
// Every decision is a pure hash of (seed, epoch, channel): the injector
// carries no RNG stream, so replaying a prefix of a run (the
// checkpoint/resume path) reproduces exactly the same faults without any
// injector state in the checkpoint.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"sparseadapt/internal/config"
	"sparseadapt/internal/sim"
)

// Spec declares which fault classes to inject and how hard. Telemetry and
// reconfiguration fields are per-epoch (or per-attempt) probabilities in
// [0, 1]; Noise is a multiplicative amplitude applied every epoch.
type Spec struct {
	// Telemetry faults.
	NaN   float64 `json:"nan,omitempty"`   // whole counter frame reads NaN
	Inf   float64 `json:"inf,omitempty"`   // whole counter frame reads +Inf
	Zero  float64 `json:"zero,omitempty"`  // counters read zero (torn reset)
	Stuck float64 `json:"stuck,omitempty"` // counters frozen at the previous epoch's values
	Drop  float64 `json:"drop,omitempty"`  // the telemetry message never arrives
	Noise float64 `json:"noise,omitempty"` // ±amplitude multiplicative noise on every counter

	// Model faults.
	Wild float64 `json:"wild,omitempty"` // prediction replaced with out-of-range config levels

	// Reconfiguration faults.
	RcDrop      float64 `json:"rc-drop,omitempty"`    // a knob change silently doesn't take
	RcPenalty   float64 `json:"rc-penalty,omitempty"` // a knob change takes at PenaltyMult× its cost
	PenaltyMult float64 `json:"mult,omitempty"`       // multiplier for RcPenalty faults (default 8)

	// Seed fixes the injector's PRNG stream so runs are reproducible.
	Seed int64 `json:"seed,omitempty"`
}

// IsZero reports whether the spec injects nothing.
func (s Spec) IsZero() bool {
	return s.NaN == 0 && s.Inf == 0 && s.Zero == 0 && s.Stuck == 0 &&
		s.Drop == 0 && s.Noise == 0 && s.Wild == 0 && s.RcDrop == 0 && s.RcPenalty == 0
}

// specFields maps spec keys to their destinations, shared by ParseSpec and
// String so the two cannot drift.
func specFields(s *Spec) map[string]*float64 {
	return map[string]*float64{
		"nan":        &s.NaN,
		"inf":        &s.Inf,
		"zero":       &s.Zero,
		"stuck":      &s.Stuck,
		"drop":       &s.Drop,
		"noise":      &s.Noise,
		"wild":       &s.Wild,
		"rc-drop":    &s.RcDrop,
		"rc-penalty": &s.RcPenalty,
		"mult":       &s.PenaltyMult,
	}
}

// specSyntax is how ParseSpec reads its clauses.
var specSyntax = syntax{clause: "spec clause", seed: "seed", class: "fault class", unbounded: [2]string{"mult", "noise"}}

// ParseSpec parses the CLI fault spec: comma-separated key=value pairs,
// e.g. "nan=0.1,stuck=0.05,rc-drop=0.3,mult=8,seed=7". Unknown keys and
// out-of-range probabilities are errors.
func ParseSpec(text string) (Spec, error) {
	var s Spec
	if err := specSyntax.parse(text, specFields(&s), &s.Seed); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// String renders the spec in ParseSpec syntax. A spec ParseSpec accepted
// re-parses from its String to an equal spec, except the zero spec, which
// renders as "none" and which ParseSpec does not accept.
func (s Spec) String() string { return render(specFields(&s), s.Seed) }

// syntax is one spec's key=value clause grammar: a seed key, float keys
// in [0, 1] but for the unbounded ones, and the nouns its errors use.
type syntax struct {
	clause, seed, class string
	unbounded           [2]string
}

// parse reads text's comma-separated key=value clauses into fields and
// seed. Blank text sets nothing.
func (y syntax) parse(text string, fields map[string]*float64, seed *int64) error {
	text = strings.TrimSpace(text)
	if text == "" {
		return nil
	}
	for _, part := range strings.Split(text, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || kv[0] == "" {
			return fmt.Errorf("fault: bad %s %q (want key=value)", y.clause, part)
		}
		key := strings.TrimSpace(kv[0])
		if key == "seed" {
			v, err := strconv.ParseInt(strings.TrimSpace(kv[1]), 10, 64)
			if err != nil {
				return fmt.Errorf("fault: bad %s %q: %v", y.seed, kv[1], err)
			}
			*seed = v
			continue
		}
		dst, ok := fields[key]
		if !ok {
			return fmt.Errorf("fault: unknown %s %q", y.class, key)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(kv[1]), 64)
		if err != nil {
			return fmt.Errorf("fault: bad value for %s: %v", key, err)
		}
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("fault: %s=%v out of range", key, v)
		}
		if key != y.unbounded[0] && key != y.unbounded[1] && v > 1 {
			return fmt.Errorf("fault: probability %s=%v exceeds 1", key, v)
		}
		*dst = v
	}
	return nil
}

// render writes the nonzero fields in key order, then a nonzero seed, in
// parse's syntax; it writes "none" when there is nothing to write.
func render(fields map[string]*float64, seed int64) string {
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		if v := *fields[k]; v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	if seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", seed))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// Hash channels: every (epoch, channel) pair yields an independent
// deterministic random stream.
const (
	chNaN = iota + 1
	chInf
	chZero
	chStuck
	chDrop
	chNoise
	chWild
	chWildParam
	chWildLevel
	chRcDrop
	chRcPenalty
)

// Injector injects the spec's faults into a controller run. All decisions
// derive from hashes of (seed, epoch, channel); the only mutable state is
// the previous telemetry frame for stuck-at faults, which is rebuilt
// naturally when a run prefix is replayed.
type Injector struct {
	spec    Spec
	prev    sim.Counters
	hasPrev bool
}

// New builds an injector for the spec.
func New(spec Spec) *Injector {
	if spec.PenaltyMult <= 0 {
		spec.PenaltyMult = 8
	}
	return &Injector{spec: spec}
}

// Spec returns the injector's fault specification.
func (in *Injector) Spec() Spec { return in.spec }

// splitmix64 is the SplitMix64 finalizer, a high-quality 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// uniform derives a deterministic value in [0, 1) for (epoch, channel, lane).
func (in *Injector) uniform(epoch, channel, lane int) float64 {
	h := splitmix64(uint64(in.spec.Seed))
	h = splitmix64(h ^ uint64(epoch)<<16 ^ uint64(channel))
	h = splitmix64(h ^ uint64(lane))
	return float64(h>>11) / float64(1<<53)
}

func (in *Injector) hit(p float64, epoch, channel, lane int) bool {
	return p > 0 && in.uniform(epoch, channel, lane) < p
}

// PerturbTelemetry returns the counter frame the controller observes at the
// given epoch, possibly corrupted, plus the names of the fault classes that
// fired. The incoming (true) frame always becomes the stuck-at reference
// for the next epoch, so replaying a run prefix rebuilds injector state.
func (in *Injector) PerturbTelemetry(epoch int, c sim.Counters) (sim.Counters, []string) {
	true_ := c
	var tags []string
	// Frame-level faults are mutually exclusive; the first that fires wins.
	switch {
	case in.hit(in.spec.Stuck, epoch, chStuck, 0) && in.hasPrev:
		c = in.prev
		tags = append(tags, "stuck")
	case in.hit(in.spec.Zero, epoch, chZero, 0):
		c = sim.Counters{}
		tags = append(tags, "zero")
	case in.hit(in.spec.NaN, epoch, chNaN, 0):
		c = fillCounters(math.NaN())
		tags = append(tags, "nan")
	case in.hit(in.spec.Inf, epoch, chInf, 0):
		c = fillCounters(math.Inf(1))
		tags = append(tags, "inf")
	}
	if in.spec.Noise > 0 {
		f := c.Features()
		for i := range f {
			// Uniform multiplicative noise in [1-a, 1+a].
			f[i] *= 1 + in.spec.Noise*(2*in.uniform(epoch, chNoise, i)-1)
		}
		c = sim.CountersFromFeatures(f)
		tags = append(tags, "noise")
	}
	in.prev, in.hasPrev = true_, true
	return c, tags
}

// DropTelemetry reports whether the epoch's telemetry message is lost
// entirely (the controller sees nothing, not even a corrupt frame).
func (in *Injector) DropTelemetry(epoch int) bool {
	return in.hit(in.spec.Drop, epoch, chDrop, 0)
}

// PerturbPrediction corrupts the model's predicted configuration with
// out-of-range levels — the garbage a torn model file or a buggy tree
// produces — returning the corrupted prediction and whether it fired.
func (in *Injector) PerturbPrediction(epoch int, pred config.Config) (config.Config, bool) {
	if !in.hit(in.spec.Wild, epoch, chWild, 0) {
		return pred, false
	}
	// Corrupt one to three runtime parameters.
	n := 1 + int(in.uniform(epoch, chWildParam, 0)*3)
	for k := 0; k < n; k++ {
		p := config.RuntimeParams[int(in.uniform(epoch, chWildParam, k+1)*float64(len(config.RuntimeParams)))%len(config.RuntimeParams)]
		if in.uniform(epoch, chWildLevel, k) < 0.5 {
			pred[p] = config.Cardinality(p) + 1 + k
		} else {
			pred[p] = -1 - k
		}
	}
	return pred, true
}

// ReconfigFault reports, for the attempt-th try of an epoch-boundary
// reconfiguration, whether the knob write is silently lost and what
// multiplier applies to its transition cost when it does take (1 = clean).
func (in *Injector) ReconfigFault(epoch, attempt int) (drop bool, penaltyMult float64) {
	penaltyMult = 1
	if in.hit(in.spec.RcDrop, epoch, chRcDrop, attempt) {
		return true, 1
	}
	if in.hit(in.spec.RcPenalty, epoch, chRcPenalty, attempt) {
		penaltyMult = in.spec.PenaltyMult
	}
	return false, penaltyMult
}

// fillCounters builds a frame with every feature set to v.
func fillCounters(v float64) sim.Counters {
	f := make([]float64, sim.NumFeatures)
	for i := range f {
		f[i] = v
	}
	return sim.CountersFromFeatures(f)
}
