package cli

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sparseadapt/internal/server"
)

func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	var buf bytes.Buffer
	code := Main(args, &buf)
	return buf.String(), code
}

func TestNoArgsShowsUsage(t *testing.T) {
	out, code := runCLI(t)
	if code != 2 || !strings.Contains(out, "commands:") {
		t.Fatalf("code %d out %q", code, out)
	}
}

func TestUnknownCommand(t *testing.T) {
	out, code := runCLI(t, "frobnicate")
	if code != 2 || !strings.Contains(out, "unknown command") {
		t.Fatalf("code %d out %q", code, out)
	}
}

func TestHelp(t *testing.T) {
	out, code := runCLI(t, "help")
	if code != 0 || !strings.Contains(out, "check") {
		t.Fatalf("help missing: %q", out)
	}
}

func TestList(t *testing.T) {
	out, code := runCLI(t, "list")
	if code != 0 {
		t.Fatalf("list failed: %s", out)
	}
	for _, id := range []string{"fig1", "fig6", "tab6", "sec64", "disc7", "hist", "algo"} {
		if !strings.Contains(out, id) {
			t.Fatalf("list missing %s:\n%s", id, out)
		}
	}
}

func TestDatasets(t *testing.T) {
	out, code := runCLI(t, "datasets")
	if code != 0 {
		t.Fatalf("datasets failed: %s", out)
	}
	for _, frag := range []string{"R01", "R16", "power-law", "wiki-Vote_11"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("datasets missing %q", frag)
		}
	}
}

func TestExpErrors(t *testing.T) {
	if out, code := runCLI(t, "exp"); code == 0 {
		t.Fatalf("exp without id accepted: %s", out)
	}
	if out, code := runCLI(t, "exp", "nope", "-scale", "test"); code == 0 {
		t.Fatalf("unknown experiment accepted: %s", out)
	}
	if out, code := runCLI(t, "exp", "fig10", "-scale", "galactic"); code == 0 {
		t.Fatalf("unknown scale accepted: %s", out)
	}
}

func TestExpRunsAndWritesCSV(t *testing.T) {
	dir := t.TempDir()
	out, code := runCLI(t, "exp", "fig10", "-scale", "test", "-csv", dir)
	if code != 0 {
		t.Fatalf("exp fig10 failed: %s", out)
	}
	if !strings.Contains(out, "Gini importance") {
		t.Fatalf("report missing: %s", out)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig10.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "series,") {
		t.Fatalf("CSV malformed: %s", data[:40])
	}
}

func TestTrainWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	model := filepath.Join(dir, "m.json")
	csv := filepath.Join(dir, "d.csv")
	out, code := runCLI(t, "train", "-kernel", "spmspv", "-mode", "ee",
		"-scale", "0.1", "-out", model, "-csv", csv)
	if code != 0 {
		t.Fatalf("train failed: %s", out)
	}
	for _, p := range []string{model, csv} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("artifact %s missing", p)
		}
	}
	// And the model is loadable by run.
	out, code = runCLI(t, "run", "-kernel", "spmspv", "-matrix", "P1",
		"-scale", "test", "-model", model)
	if code != 0 {
		t.Fatalf("run with saved model failed: %s", out)
	}
	if !strings.Contains(out, "sparseadapt") || !strings.Contains(out, "gains over baseline") {
		t.Fatalf("run output malformed: %s", out)
	}
}

func TestTrainBadFlags(t *testing.T) {
	if out, code := runCLI(t, "train", "-mode", "warp"); code == 0 {
		t.Fatalf("bad mode accepted: %s", out)
	}
	if out, code := runCLI(t, "train", "-l1", "dram"); code == 0 {
		t.Fatalf("bad L1 accepted: %s", out)
	}
}

func TestRunAlgoFlags(t *testing.T) {
	// Invalid enum values exit with the usage code and list every
	// violation at once (the flagcheck contract).
	out, code := runCLI(t, "run", "-kernel", "spmspv", "-matrix", "P1", "-scale", "test",
		"-dataflow", "diagonal", "-format", "ELL")
	if code != 2 {
		t.Fatalf("bad -dataflow/-format exited %d, want 2: %s", code, out)
	}
	for _, frag := range []string{"-dataflow", "-format", "outer|inner|row", "csr|csc|coo"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("violation output missing %q: %s", frag, out)
		}
	}
	// Graph kernels have no dataflow/format axes.
	if out, code := runCLI(t, "run", "-kernel", "bfs", "-matrix", "R07", "-scale", "test",
		"-format", "coo"); code == 0 {
		t.Fatalf("-format accepted for bfs: %s", out)
	}
	// A valid pin runs the whole comparison on the requested variant.
	out, code = runCLI(t, "run", "-kernel", "spmspv", "-matrix", "P1", "-scale", "test",
		"-format", "coo", "-dataflow", "row")
	if code != 0 {
		t.Fatalf("pinned run failed: %s", out)
	}
	if !strings.Contains(out, "gains over baseline") {
		t.Fatalf("pinned run output malformed: %s", out)
	}
}

// TestRunHonorsCancellation: a cancelled run stops at its first epoch
// boundary and reports the cancellation, on the plain and on the resilient
// (fault-injected, checkpointed) control path alike.
func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ck := filepath.Join(t.TempDir(), "run.ck")
	for _, extra := range [][]string{nil, {"-faults", "nan=0.1,seed=7", "-checkpoint", ck}} {
		var buf bytes.Buffer
		args := append([]string{"run", "-kernel", "spmspv", "-matrix", "R12", "-scale", "test"}, extra...)
		if code := MainContext(ctx, args, &buf); code != 1 || !strings.Contains(buf.String(), "context canceled") {
			t.Fatalf("cancelled run %v exited %d: %s", extra, code, buf.String())
		}
	}
}

// TestRunGraphKernels runs BFS and SSSP from vertex 0 of R04, where both
// traverse for many epochs (from vertex 0 of R07 they stop after one step),
// and checks that the header reports more than one epoch.
func TestRunGraphKernels(t *testing.T) {
	for _, kernel := range []string{"bfs", "sssp"} {
		out, code := runCLI(t, "run", "-kernel", kernel, "-matrix", "R04", "-scale", "test")
		if code != 0 {
			t.Fatalf("%s run failed: %s", kernel, out)
		}
		var epochs int
		if _, err := fmt.Sscanf(out, "workload "+kernel+" on R04 (%d epochs", &epochs); err != nil || epochs <= 1 {
			t.Fatalf("%s run: header reports %d epochs (%v), want more than one:\n%s", kernel, epochs, err, out)
		}
	}
	if out, code := runCLI(t, "run", "-kernel", "quantum", "-scale", "test"); code == 0 {
		t.Fatalf("unknown kernel accepted: %s", out)
	}
	if out, code := runCLI(t, "run", "-matrix", "R99", "-scale", "test"); code == 0 {
		t.Fatalf("unknown matrix accepted: %s", out)
	}
}

func TestCheckPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("check runs several experiments")
	}
	out, code := runCLI(t, "check")
	if code != 0 {
		t.Fatalf("check failed:\n%s", out)
	}
	if !strings.Contains(out, "within tolerance") {
		t.Fatalf("check output malformed:\n%s", out)
	}
}

func TestExpWritesSVG(t *testing.T) {
	dir := t.TempDir()
	out, code := runCLI(t, "exp", "fig10", "-scale", "test", "-svg", dir)
	if code != 0 {
		t.Fatalf("exp failed: %s", out)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig10.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") {
		t.Fatal("not an SVG file")
	}
}

// TestOracleSubcommand records a small upper-bound study, free and with
// the dataflow pinned, and checks both modes' scheme tables print.
func TestOracleSubcommand(t *testing.T) {
	for _, extra := range [][]string{nil, {"-dataflow", "inner"}} {
		args := append([]string{"oracle", "-kernel", "spmspv", "-matrix", "R04", "-samples", "4", "-scale", "test", "-workers", "1"}, extra...)
		out, code := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("%v failed: %s", args, out)
		}
		for _, frag := range []string{"recording spmspv on R04:", "--- mode: power-performance ---",
			"--- mode: energy-efficient ---", "profileadapt-ideal", "ideal static config:"} {
			if !strings.Contains(out, frag) {
				t.Fatalf("%v output missing %q:\n%s", args, frag, out)
			}
		}
		if extra != nil && strings.Count(out, " inner/") != 2 {
			t.Errorf("pinned study's ideal static configs are not inner-product:\n%s", out)
		}
	}
	if out, code := runCLI(t, "oracle", "-kernel", "bfs", "-scale", "test"); code != 1 {
		t.Errorf("oracle on a kernel without variants exited %d: %s", code, out)
	}
}

// TestTraingenMatchesTrain: traingen and train share one generation path,
// so the same sweep flags write byte-identical dataset files.
func TestTraingenMatchesTrain(t *testing.T) {
	dir := t.TempDir()
	p := func(name string) string { return filepath.Join(dir, name) }
	if out, code := runCLI(t, "traingen", "-scale", "0.1", "-json", p("gen.json"), "-csv", p("gen.csv")); code != 0 {
		t.Fatalf("traingen failed: %s", out)
	}
	if out, code := runCLI(t, "train", "-scale", "0.1", "-dataset", p("train.json"), "-csv", p("train.csv"), "-out", p("m.json")); code != 0 {
		t.Fatalf("train failed: %s", out)
	}
	for _, pair := range [][2]string{{"gen.json", "train.json"}, {"gen.csv", "train.csv"}} {
		a, err := os.ReadFile(p(pair[0]))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(p(pair[1]))
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Errorf("traingen's %s (%d bytes) differs from train's %s (%d bytes)", pair[0], len(a), pair[1], len(b))
		}
	}
}

// TestSubmitLabelsUpload: submit names an uploaded matrix by the size the
// status echoes, since statuses no longer carry the body. The server's
// worker pool never starts, so the job stays queued.
func TestSubmitLabelsUpload(t *testing.T) {
	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	mm := "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n"
	path := filepath.Join(t.TempDir(), "a.mtx")
	if err := os.WriteFile(path, []byte(mm), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := runCLI(t, "submit", "-server", ts.URL, "-matrix-file", path, "-follow=false")
	want := fmt.Sprintf("(adaptive spmspv on uploaded matrix of %d bytes, scale test)", len(mm))
	if code != 0 || !strings.Contains(out, want) {
		t.Fatalf("submit exited %d, printed %q, want %q", code, out, want)
	}
}
