package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"sparseadapt/internal/sched"
	"sparseadapt/internal/server"
	"sparseadapt/internal/server/client"
)

// buildDaemon compiles the sparseadaptd binary into a per-test temp dir
// (the go build cache makes repeat builds cheap).
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sparseadaptd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building daemon: %v\n%s", err, out)
	}
	return bin
}

// daemon is one running sparseadaptd process under test.
type daemon struct {
	cmd    *exec.Cmd
	base   string          // server root parsed from the listening line
	boot   string          // stdout lines before the listening line
	rest   strings.Builder // stdout after the listening line
	copied chan struct{}
}

// startDaemon launches the binary and waits for its listening line.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	d := &daemon{cmd: exec.Command(bin, args...), copied: make(chan struct{})}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	d.cmd.Stderr = os.Stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.cmd.Process.Kill() }) //nolint:errcheck // backstop if the test fails early
	sc := bufio.NewScanner(stdout)
	var boot strings.Builder
	for sc.Scan() {
		if _, addr, ok := strings.Cut(sc.Text(), "listening on "); ok {
			d.base = addr
			break
		}
		boot.WriteString(sc.Text())
		boot.WriteByte('\n')
	}
	d.boot = boot.String()
	if d.base == "" {
		t.Fatalf("daemon never announced its address: %v\nboot output:\n%s", sc.Err(), d.boot)
	}
	go func() {
		defer close(d.copied)
		io.Copy(&d.rest, stdout) //nolint:errcheck // test capture
	}()
	return d
}

// TestDaemonEndToEnd boots the real sparseadaptd binary on a random port,
// drives the full job lifecycle through the Go client (submit → stream →
// result), scrapes /metrics, and checks SIGTERM produces a clean drain and
// exit 0 — the whole service surface as an operator sees it.
func TestDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)

	d := startDaemon(t, bin, "-addr", "127.0.0.1:0", "-workers", "2", "-queue", "8")

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	c := client.New(d.base)

	st, err := c.Submit(ctx, sched.JobRequest{Mode: "adaptive", Kernel: "spmspv", Matrix: "R04", Scale: "test"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	epochs := 0
	if err := c.Stream(ctx, st.ID, func(ev sched.Event) error {
		if ev.Type == "epoch" {
			epochs++
		}
		return nil
	}); err != nil {
		t.Fatalf("stream: %v", err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != sched.StateDone || final.Result == nil {
		t.Fatalf("job ended %s (%s), want done", final.State, final.Error)
	}
	if epochs != final.Result.Epochs || epochs == 0 {
		t.Errorf("streamed %d epochs, result says %d", epochs, final.Result.Epochs)
	}

	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, want := range []string{
		"server_jobs_submitted_total 1",
		"server_jobs_completed_total 1",
		"server_http_requests_total",
		"engine_tasks_completed_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Drain the pipe before Wait: Wait closes it and would race the copy.
	<-d.copied
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v", err)
	}
	if !strings.Contains(d.rest.String(), "shutdown complete") {
		t.Errorf("daemon did not report a clean shutdown; output:\n%s", d.rest.String())
	}
}

// TestDaemonCrashRecovery is the headline durability scenario: a daemon is
// SIGKILLed with jobs accepted, and the rebooted daemon — same journal,
// same cache — completes every one of them with results byte-for-byte
// identical to an uninterrupted run. kill -9 allows no drain, no journal
// close, no goodbye: whatever recovery finds on disk is all it gets.
func TestDaemonCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)
	storeDir, cacheDir := t.TempDir(), t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	reqs := []sched.JobRequest{
		{Mode: "static", Matrix: "R04", Scale: "test"},
		{Mode: "static", Matrix: "R04", Scale: "test", Seed: 42},
	}

	// Uninterrupted reference results, computed in-process.
	want := make([]string, len(reqs))
	refSrv, err := server.New(server.Config{Sched: sched.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	refTS := httptest.NewServer(refSrv.Handler())
	defer refTS.Close()
	refSrv.Start()
	defer refSrv.Drain(context.Background()) //nolint:errcheck // test teardown
	ref := client.New(refTS.URL)
	for i, req := range reqs {
		st, err := ref.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		final, err := ref.Wait(ctx, st.ID)
		if err != nil || final.State != sched.StateDone {
			t.Fatalf("reference job %d: %v (state %s)", i, err, final.State)
		}
		want[i] = marshalResult(t, final)
	}

	// Boot, submit both jobs, wait for the first, and SIGKILL with the
	// second possibly queued, running, or just finished — recovery must
	// cope with any of those honestly.
	d1 := startDaemon(t, bin, "-addr", "127.0.0.1:0", "-workers", "1",
		"-store-dir", storeDir, "-cache-dir", cacheDir)
	c1 := client.New(d1.base)
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		st, err := c1.Submit(ctx, req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = st.ID
	}
	if final, err := c1.Wait(ctx, ids[0]); err != nil || final.State != sched.StateDone {
		t.Fatalf("first job before crash: %v (state %s)", err, final.State)
	}
	if err := d1.cmd.Process.Kill(); err != nil { // SIGKILL, no drain
		t.Fatal(err)
	}
	<-d1.copied
	d1.cmd.Wait() //nolint:errcheck // killed: non-zero exit is the point

	// Reboot on the same journal and cache.
	d2 := startDaemon(t, bin, "-addr", "127.0.0.1:0", "-workers", "1",
		"-store-dir", storeDir, "-cache-dir", cacheDir)
	t.Logf("reboot output: %q", d2.boot)
	c2 := client.New(d2.base)
	for i, id := range ids {
		final, err := c2.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s after reboot: %v", id, err)
		}
		if final.State != sched.StateDone {
			t.Fatalf("%s after reboot: state %s (%s), want done", id, final.State, final.Error)
		}
		if !final.Recovered {
			t.Errorf("%s does not carry the recovered flag", id)
		}
		if got := marshalResult(t, final); got != want[i] {
			t.Errorf("%s result differs from uninterrupted run:\n got %s\nwant %s", id, got, want[i])
		}
	}

	// And the recovered daemon still shuts down cleanly.
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	<-d2.copied
	if err := d2.cmd.Wait(); err != nil {
		t.Fatalf("recovered daemon exit after SIGTERM: %v", err)
	}
	if !strings.Contains(d2.rest.String(), "shutdown complete") {
		t.Errorf("recovered daemon did not report a clean shutdown; output:\n%s", d2.rest.String())
	}
}

func marshalResult(t *testing.T, st sched.JobStatus) string {
	t.Helper()
	if st.Result == nil {
		t.Fatalf("job %s has no result", st.ID)
	}
	data, err := json.Marshal(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestDaemonVersionFlag checks -version prints the build identity and
// exits 0 without binding a port.
func TestDaemonVersionFlag(t *testing.T) {
	out := capture(t, func(stdout *os.File) int {
		return run([]string{"-version"}, stdout, os.Stderr)
	})
	if !strings.Contains(out, "sparseadaptd") {
		t.Errorf("version output %q does not name the tool", out)
	}
}

// capture runs fn with a pipe as stdout and returns what it wrote.
func capture(t *testing.T, fn func(*os.File) int) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	if code := fn(w); code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
