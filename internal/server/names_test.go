package server_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"sparseadapt/internal/core"
	"sparseadapt/internal/experiments"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sched"
)

// listedNames returns the names an "unknown … (a|b|c)" error lists.
func listedNames(t *testing.T, err error) []string {
	t.Helper()
	if err == nil {
		t.Fatal("an unknown name was accepted")
	}
	msg := err.Error()
	i, j := strings.LastIndex(msg, "("), strings.LastIndex(msg, ")")
	if i < 0 || j < i {
		t.Fatalf("error %q lists no names", msg)
	}
	names := strings.Split(msg[i+1:j], "|")
	slices.Sort(names)
	return names
}

// TestJobNamesResolve ties the names a daemon job may carry to the
// resolvers its job path calls. For the scale, opt_mode and policy fields,
// the names JobRequest.Validate accepts must be exactly the names
// experiments.ScaleByName and power.ModeByName list and core's policies
// carry, and each must resolve (a policy, through experiments.ControlOptions,
// to itself for every kernel), so a name added to one side only fails here
// rather than in a running job.
func TestJobNamesResolve(t *testing.T) {
	var policies []string
	for p := core.Policy(0); !strings.HasPrefix(p.String(), "policy("); p++ {
		policies = append(policies, p.String())
	}
	slices.Sort(policies)
	_, scaleErr := experiments.ScaleByName("?")
	_, modeErr := power.ModeByName("?")

	for _, axis := range []struct {
		field    string
		set      func(*sched.JobRequest, string)
		resolves []string
		resolve  func(string) error // nil when the name resolves
	}{
		{"scale", func(r *sched.JobRequest, v string) { r.Scale = v }, listedNames(t, scaleErr), func(name string) error {
			_, err := experiments.ScaleByName(name)
			return err
		}},
		{"opt_mode", func(r *sched.JobRequest, v string) { r.OptMode = v }, listedNames(t, modeErr), func(name string) error {
			_, err := power.ModeByName(name)
			return err
		}},
		{"policy", func(r *sched.JobRequest, v string) { r.Policy = v }, policies, func(name string) error {
			for _, kernel := range []string{"spmspv", "spmspm", "bfs", "sssp"} {
				if got := experiments.ControlOptions(kernel, name, core.DefaultTolerance, 1).Policy.String(); got != name {
					return fmt.Errorf("%s resolves to %s", kernel, got)
				}
			}
			return nil
		}},
	} {
		bogus := sched.JobRequest{}
		axis.set(&bogus, "?")
		accepted := listedNames(t, bogus.Validate())
		if !slices.Equal(accepted, axis.resolves) {
			t.Errorf("%s: Validate accepts %v, the job path resolves %v", axis.field, accepted, axis.resolves)
		}
		for _, name := range accepted {
			req := sched.JobRequest{}
			axis.set(&req, name)
			if err := req.Validate(); err != nil {
				t.Errorf("%s %q: listed by Validate but rejected: %v", axis.field, name, err)
			}
			if err := axis.resolve(name); err != nil {
				t.Errorf("%s %q: accepted by Validate but does not resolve: %v", axis.field, name, err)
			}
		}
	}
}
