package cli

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sparseadapt/internal/obs"
)

// TestRunWithObservability is the acceptance path of the observability
// layer: `run -trace -metrics -manifest` must produce a Chrome trace with
// at least one event per executed epoch, a non-empty metrics export, and a
// manifest that round-trips.
func TestRunWithObservability(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.prom")
	manifestPath := filepath.Join(dir, "manifest.json")

	out, code := runCLI(t, "run", "-scale", "test",
		"-trace", tracePath, "-metrics", metricsPath, "-manifest", manifestPath)
	if code != 0 {
		t.Fatalf("run failed: %s", out)
	}

	// The run report names the epoch count ("... (51 epochs, ..."); the
	// trace must cover each one.
	epochs := 0
	for _, f := range strings.Fields(out) {
		if n, err := strconv.Atoi(strings.TrimPrefix(f, "(")); err == nil && strings.HasPrefix(f, "(") {
			epochs = n
			break
		}
	}
	if epochs <= 0 {
		t.Fatalf("could not parse epoch count from output:\n%s", out)
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
			Tid int    `json:"tid"`
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace is not valid Chrome trace JSON: %v", err)
	}
	epochSpans := 0
	for _, e := range trace.TraceEvents {
		if e.Ph == "X" && e.Cat == "epoch" {
			epochSpans++
		}
	}
	if epochSpans < epochs {
		t.Fatalf("trace has %d epoch spans for %d epochs", epochSpans, epochs)
	}

	prom, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sim_epochs_total", "controller_epochs_total", "engine_tasks_submitted_total"} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("metrics export missing %s", want)
		}
	}

	m, err := obs.ReadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tool != "sparseadapt run" || m.GoVersion == "" {
		t.Fatalf("manifest not stamped: %+v", m)
	}
}

// TestRunWithPprof verifies -pprof serves the profile index for the run's
// duration (the server is torn down by finish, so probe via a second
// server on an ephemeral port here).
func TestRunWithPprof(t *testing.T) {
	srv, err := obs.ServePprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index returned %d", resp.StatusCode)
	}
}

// TestRunTraceCounters: run's -trace-counters embeds the Table 2 telemetry
// vector in every epoch record of the trace, and without it no record
// carries one.
func TestRunTraceCounters(t *testing.T) {
	dir := t.TempDir()
	for _, withCounters := range []bool{true, false} {
		path := filepath.Join(dir, "trace-"+strconv.FormatBool(withCounters)+".jsonl")
		args := []string{"run", "-scale", "test", "-matrix", "R04", "-trace", path}
		if withCounters {
			args = append(args, "-trace-counters")
		}
		if out, code := runCLI(t, args...); code != 0 {
			t.Fatalf("%v failed: %s", args, out)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		epochs, counted := 0, 0
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			var rec struct {
				Type  string `json:"type"`
				Epoch struct {
					Counters map[string]float64 `json:"counters"`
				} `json:"epoch"`
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("bad JSONL line %q: %v", line, err)
			}
			if rec.Type == "epoch" {
				epochs++
				if len(rec.Epoch.Counters) > 0 {
					counted++
				}
			}
		}
		want := 0
		if withCounters {
			want = epochs
		}
		if epochs == 0 || counted != want {
			t.Errorf("-trace-counters=%v: %d of %d epoch records carry counters, want %d", withCounters, counted, epochs, want)
		}
	}
}
