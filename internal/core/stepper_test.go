package core

import (
	"testing"

	"sparseadapt/internal/config"
	"sparseadapt/internal/obs"
	"sparseadapt/internal/sim"
)

// The golden interference-vs-fault scenario: the same cost spike is
// classified as interference when it coincides with a tenant-switch boundary
// (no streak, no fallback) and as degradation when it does not (watchdog
// trips). This is the contract the multi-tenant multiplexer relies on —
// re-predict, don't fall back.
func TestStepperInterferenceVsFault(t *testing.T) {
	w := bigWorkload(t)
	m := sim.New(chip, sim.DefaultBandwidth, config.Baseline)
	m.BindTrace(w.Trace)
	eps := w.Epochs(0.1)
	if len(eps) < 20 {
		t.Fatalf("workload too short: %d epochs", len(eps))
	}

	reg := obs.NewRegistry()
	tr := obs.NewTraceRecorder()
	s := NewResilientController(nil, DefaultResilientOptions())
	s.Obs = NewObserver(reg, tr)
	s.Obs.Tenant = "tenant-a"

	// Healthy epochs build the baseline.
	i := 0
	for ; i < 6; i++ {
		log := s.Step(m, m.RunEpoch(eps[i]))
		if log.Interference || log.Degraded {
			t.Fatalf("healthy epoch %d misclassified: %+v", i, log)
		}
	}

	// A tenant switch then a cold-cache cost spike: interference, no trip.
	s.NoteSwitch()
	m.InjectPenalty(5e6)
	log := s.Step(m, m.RunEpoch(eps[i]))
	i++
	if !log.Interference {
		t.Fatal("switch-coincident cost spike must be classified as interference")
	}
	if log.Degraded {
		t.Fatal("an interference epoch must not count as degraded")
	}
	if rep := s.Report(); rep.Fallbacks != 0 || rep.InterferenceEpochs != 1 || rep.DegradedEpochs != 0 {
		t.Fatalf("after interference: %+v", rep)
	}

	// The same spikes with no switch boundary are genuine degradation and
	// must trip the watchdog into fallback.
	for ; i < len(eps) && s.Report().Fallbacks == 0; i++ {
		m.InjectPenalty(5e6)
		l := s.Step(m, m.RunEpoch(eps[i]))
		if l.Interference {
			t.Fatalf("epoch %d: interference without a switch boundary", i)
		}
	}
	rep := s.Report()
	if rep.Fallbacks == 0 {
		t.Fatal("sustained spikes off a switch boundary must trip the watchdog")
	}
	if rep.InterferenceEpochs != 1 {
		t.Fatalf("interference count %d, want 1", rep.InterferenceEpochs)
	}
	if m.Config() != DefaultResilientOptions().Fallback {
		t.Fatalf("machine not in fallback config: %v", m.Config())
	}

	// The classification and tenant stamp must surface in the epoch trace
	// and the metric family.
	s.Flush()
	var interferenceRecs, degradedRecs int
	for _, rec := range tr.Epochs() {
		if rec.Tenant != "tenant-a" {
			t.Fatalf("epoch %d missing tenant stamp: %+v", rec.Epoch, rec)
		}
		if rec.Interference {
			interferenceRecs++
		}
		if rec.Degraded {
			degradedRecs++
		}
	}
	if interferenceRecs != 1 || degradedRecs == 0 {
		t.Fatalf("trace records: interference=%d degraded=%d", interferenceRecs, degradedRecs)
	}
	found := false
	for _, ms := range reg.Snapshot() {
		if ms.Name == "controller_interference_epochs_total" {
			found = true
			if ms.Value != 1 {
				t.Fatalf("controller_interference_epochs_total = %v, want 1", ms.Value)
			}
		}
	}
	if !found {
		t.Fatal("controller_interference_epochs_total not registered")
	}
}

// A switch boundary with no cost shift is business as usual: no
// interference classification, baseline keeps growing.
func TestStepperSwitchWithoutShiftIsClean(t *testing.T) {
	w := bigWorkload(t)
	m := sim.New(chip, sim.DefaultBandwidth, config.Baseline)
	m.BindTrace(w.Trace)
	eps := w.Epochs(0.1)

	s := NewResilientController(nil, DefaultResilientOptions())
	for i := 0; i < 10 && i < len(eps); i++ {
		if i == 5 {
			s.NoteSwitch()
		}
		log := s.Step(m, m.RunEpoch(eps[i]))
		if log.Interference || log.Degraded {
			t.Fatalf("epoch %d misclassified: %+v", i, log)
		}
	}
	if rep := s.Report(); rep.InterferenceEpochs != 0 || rep.DegradedEpochs != 0 {
		t.Fatalf("clean run report: %+v", rep)
	}
}
