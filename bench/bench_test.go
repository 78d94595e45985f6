package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sparseadapt/internal/host"
	"sparseadapt/internal/sched"
)

func TestTailPercentileSelection(t *testing.T) {
	cases := []struct {
		n     int
		limit float64
		want  string
	}{
		{n: 5, limit: 99, want: "max"},
		{n: 19, limit: 99, want: "max"},
		{n: 40, limit: 99, want: "p75"},
		{n: 100, limit: 99, want: "p90"},
		{n: 200, limit: 99, want: "p95"},
		{n: 999, limit: 99, want: "p95"}, // p99 refused below n = 1000
		{n: 1000, limit: 99, want: "p99"},
		{n: 50000, limit: 99, want: "p99"},
		{n: 10000, limit: 99.9, want: "p99.9"},
		{n: 5000, limit: 90, want: "p90"},
	}
	for _, c := range cases {
		if _, got := tailFor(c.n, c.limit); got != c.want {
			t.Errorf("tailFor(%d, %g) = %s, want %s", c.n, c.limit, got, c.want)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %g, want 5.5", got)
	}
	if got := percentile(xs, 100); got != 10 {
		t.Errorf("p100 = %g, want 10", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	if xs[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 50 * ms},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms}, // runs past the parent
		{ID: 5, Parent: 3, Name: "d", Start: 25 * ms, End: 45 * ms},  // grandchild
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50 * ms, 2: 20 * ms, 3: 10 * ms, 4: 30 * ms, 5: 20 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	id := tr.begin(0, "x", "")
	tr.count(id, 3)
	tr.end(id)
	if d, err := tr.timed(0, "y", "", func(int) error { return nil }); err != nil || d < 0 {
		t.Fatalf("timed on nil tracer: %v, %v", d, err)
	}
	if tr.snapshot() != nil {
		t.Fatal("nil tracer recorded spans")
	}
}

func TestDigestStable(t *testing.T) {
	d := newDigest()
	d.f64(1.5, math.Copysign(0, -1))
	d.ints(3, -1)
	d.bytes([]byte("row\n"))
	// A pinned value: digests pinned in digests.json depend on this
	// encoding never changing.
	const want = "92ec07deff9393d1"
	if got := d.String(); got != want {
		t.Fatalf("digest = %s, want %s", got, want)
	}
	a, b := newDigest(), newDigest()
	a.f64(1, 2)
	b.f64(2, 1)
	if a.String() == b.String() {
		t.Fatal("digest ignores order")
	}
	tenth, fifth := 0.1, 0.2
	r := host.Result{Efficiency: tenth + fifth} // 0.30000000000000004 at run time
	if hostJSON(r) != hostJSON(r) || !strings.Contains(hostJSON(r), "0.30000000000000004") {
		t.Fatalf("hostJSON does not keep every digit: %s", hostJSON(r))
	}
}

// TestChildArgsCarryOneSeed guards the isolation rule: the program caches
// models process-wide without keying on the seed, so each child process
// must run exactly one workload under exactly one seed. The run length is
// not passed: a child reads it from BENCHMARK.json like its parent.
func TestChildArgsCarryOneSeed(t *testing.T) {
	args := childArgs("daemon-fresh", options{seed: 7, seconds: 10, traced: true, traceDir: "t"})
	if slices.Contains(args, "-seconds") {
		t.Errorf("child args %q pass a run length", args)
	}
	count := map[string]int{}
	for i, a := range args {
		if strings.HasPrefix(a, "-") {
			count[a]++
			if a == "-seed" && args[i+1] != "7" {
				t.Errorf("-seed %s, want 7", args[i+1])
			}
		}
	}
	if count["-seed"] != 1 || count["-child"] != 1 {
		t.Fatalf("child args %q: want exactly one -seed and one -child", args)
	}
	for _, a := range args {
		if strings.Contains(a, ",") {
			t.Fatalf("child args %q name more than one workload or seed", args)
		}
	}
}

// fakeDaemon answers the job API instantly, except that job stallAt holds
// the only connection for stall, so the generator's later sends queue up
// behind it the way they would behind a stalled daemon or generator.
type fakeDaemon struct {
	mu       sync.Mutex
	finished map[string]time.Time
	n        int
	stallAt  int
	stall    time.Duration
}

func (f *fakeDaemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if r.Method == http.MethodPost {
		id := fmt.Sprintf("job-%d", f.n)
		if f.n == f.stallAt {
			time.Sleep(f.stall)
		}
		f.n++
		f.finished[id] = time.Now()
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(sched.JobStatus{ID: id}) //nolint:errcheck // test server
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	at := f.finished[id]
	json.NewEncoder(w).Encode(sched.JobStatus{ //nolint:errcheck // test server
		ID: id, State: sched.StateDone, CreatedAt: at, StartedAt: at, FinishedAt: at,
		Result: &sched.JobResult{},
	})
}

func TestDueTimeLatencyChargesStall(t *testing.T) {
	fake := &fakeDaemon{finished: map[string]time.Time{}, stallAt: 2, stall: 300 * time.Millisecond}
	srv := httptest.NewServer(fake)
	defer srv.Close()
	d := &daemon{base: srv.URL, client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}}
	const jobs, rate = 10, 50.0
	bodies := make([][]byte, jobs)
	for i := range bodies {
		bodies[i] = []byte("{}")
	}
	ctx := context.Background()
	p := &daemonPhase{sends: openLoop(ctx, d, bodies, rate)}
	ids := make([]string, jobs)
	for i, s := range p.sends {
		if s.err != nil {
			t.Fatal(s.err)
		}
		ids[i] = s.id
	}
	var err error
	if p.sts, err = d.await(ctx, ids); err != nil {
		t.Fatal(err)
	}
	res := &result{Metrics: metrics{}}
	summarizeWindow(res, &daemonLoad{limit: 100 * time.Millisecond}, p)
	// Jobs due during the stall finish after it, so measured from their
	// due times they are late by most of it; measured from when their
	// request went out they would look instant.
	if got := res.Metrics["tail_ms"].Value; got < 200 {
		t.Errorf("tail latency %.1f ms, want the 300 ms stall charged", got)
	}
	if got := res.Metrics["p50_ms"].Value; got < 100 {
		t.Errorf("median latency %.1f ms, want the jobs queued behind the stall charged", got)
	}
	if res.Metrics["slo_ok_ratio"].Value >= 0.9 {
		t.Errorf("slo_ok_ratio %.2f: jobs delayed past the limit must count as misses", res.Metrics["slo_ok_ratio"].Value)
	}
	for i, s := range p.sends {
		if s.submit < 0 || s.due.IsZero() {
			t.Errorf("send %d not recorded: %+v", i, s)
		}
	}
}

// TestCatalogMatchesBenchmark checks BENCHMARK.json against what this
// command measures: its workloads, and bounds of at most 0.25 with the
// set-up bound the largest.
func TestCatalogMatchesBenchmark(t *testing.T) {
	cat, err := loadCatalog(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range cat.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, bench runs %v", names, workloadNames)
	}
	setup, ok := cat.lookup("setup_s")
	if !ok || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("setup_s missing or malformed: %+v", setup)
	}
	for _, m := range cat.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > setup.Bound {
			t.Errorf("%s bound %g outside (0, min(0.25, setup bound %g)]", m.Name, m.Bound, setup.Bound)
		}
	}
	var pinned map[string]string
	if err := json.Unmarshal(pinnedDigests, &pinned); err != nil {
		t.Fatalf("digests.json: %v", err)
	}
}

func TestCompareRefusesOtherMachines(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, st stamp) string {
		path := filepath.Join(dir, name)
		res := &result{Workload: "oracle-grid", Metrics: metrics{"wall_s": {Value: 1, Unit: "s"}}}
		if err := appendRun(path, st, []*result{res}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	here := stamp{GOMAXPROCS: 2, NProc: 2, CPU: "cpu", GoVersion: "go1"}
	there := here
	there.NProc = 8
	cat := &catalog{EndToEnd: []catalogMetric{{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}}}
	a, b := write("a.jsonl", here), write("b.jsonl", there)
	var out strings.Builder
	if err := compareFiles(&out, cat, a, b); err == nil || !strings.Contains(err.Error(), "different machines") {
		t.Fatalf("compare across machines: err = %v", err)
	}
	here.Commit, here.Seed = "other-commit", 2 // code and seed may differ
	c := write("c.jsonl", here)
	out.Reset()
	if err := compareFiles(&out, cat, a, c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "oracle-grid/wall_s") {
		t.Fatalf("compare output lacks the metric row:\n%s", out.String())
	}
}
