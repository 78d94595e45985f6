package cli

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"
)

// cancelledCLI runs the CLI under an already-cancelled context, so a
// command that gets past its flag checks stops at its first cancellation
// point instead of simulating.
func cancelledCLI(args ...string) (string, int) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	code := MainContext(ctx, args, &buf)
	return buf.String(), code
}

// TestFlagViolationsExitUsage is the flag contract of every subcommand:
// range violations, the engine flags' included, are reported all at once
// and exit with the usage code 2. trainer.DefaultSweep reads a scale ≤ 0
// or above 1 as the full Table 3 sweep, so train and traingen must refuse
// one at the flags; the cancelled context stops a command that does not.
func TestFlagViolationsExitUsage(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"exp", "fig10", "-scale", "test", "-workers", "-1"}, []string{"-workers"}},
		{[]string{"submit", "-retries", "-1"}, []string{"-retries"}},
		{[]string{"run", "-scale", "test", "-workers", "-1", "-dataflow", "bogus"}, []string{"-workers", "-dataflow"}},
		{[]string{"run", "-scale", "test", "-policy", "lazy"}, []string{"-policy"}},
		{[]string{"train", "-scale", "0", "-workers", "-1", "-out", filepath.Join(dir, "m.json")}, []string{"-scale", "-workers"}},
		{[]string{"train", "-scale", "-0.5", "-out", filepath.Join(dir, "m.json")}, []string{"-scale"}},
		{[]string{"oracle", "-samples", "0", "-workers", "-1"}, []string{"-samples", "-workers"}},
		{[]string{"traingen", "-scale", "0", "-workers", "-1", "-csv", filepath.Join(dir, "d.csv")}, []string{"-scale", "-workers"}},
		{[]string{"train", "-scale", "2", "-out", filepath.Join(dir, "m.json")}, []string{"-scale"}},
		{[]string{"traingen", "-scale", "5", "-csv", filepath.Join(dir, "d.csv")}, []string{"-scale"}},
	} {
		out, code := cancelledCLI(tc.args...)
		if code != 2 {
			t.Errorf("%v exited %d, want 2: %s", tc.args, code, out)
			continue
		}
		for _, flag := range tc.want {
			if !strings.Contains(out, flag+" must") {
				t.Errorf("%v: output does not report %s: %s", tc.args, flag, out)
			}
		}
	}
}
