package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"sparseadapt/internal/obs"
	"sparseadapt/internal/sched"
	"sparseadapt/internal/server"
	"sparseadapt/internal/server/client"
)

// The SSE replay tests fence the bytes of /v1/jobs/{id}/events against a
// reference rendering built here: every event decoded from the job's
// stream, marshaled with json.Marshal and framed as
// "event: <type>\nid: <seq>\ndata: <json>\n\n". An event json.Marshal
// rejects ends the response, and a Last-Event-ID resumes after that ID.

// sseBody fetches a job's event stream, with Last-Event-ID last unless
// last is empty, and returns its body.
func sseBody(t *testing.T, base, id, last string) string {
	t.Helper()
	body, err := fetchSSE(base, id, last)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// fetchSSE is sseBody for a goroutine other than the test's.
func fetchSSE(base, id, last string) (string, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	if last != "" {
		req.Header.Set("Last-Event-ID", last)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET events of %s (Last-Event-ID %q): %s", id, last, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// decodeSSE splits an event stream body into its events.
func decodeSSE(t *testing.T, body string) []sched.Event {
	t.Helper()
	var evs []sched.Event
	for _, frame := range strings.SplitAfter(body, "\n\n") {
		if frame == "" {
			continue
		}
		lines := strings.Split(strings.TrimSuffix(frame, "\n\n"), "\n")
		if len(lines) != 3 || !strings.HasPrefix(lines[0], "event: ") ||
			!strings.HasPrefix(lines[1], "id: ") || !strings.HasPrefix(lines[2], "data: ") {
			t.Fatalf("malformed SSE frame %q", frame)
		}
		var ev sched.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[2], "data: ")), &ev); err != nil {
			t.Fatalf("decoding SSE frame %q: %v", frame, err)
		}
		if ev.Type != strings.TrimPrefix(lines[0], "event: ") || strconv.Itoa(ev.Seq) != strings.TrimPrefix(lines[1], "id: ") {
			t.Fatalf("SSE frame %q: event and id lines disagree with its data", frame)
		}
		evs = append(evs, ev)
	}
	return evs
}

// sseHistory is a finished job's events by sequence number; a nil entry is
// an event no stream carries because json.Marshal rejects it.
type sseHistory []*sched.Event

// streamHistory decodes a finished job's events from its full stream and,
// where an event the handler cannot encode cuts the stream short, from
// the stream resumed past that event, until the terminal event.
func streamHistory(t *testing.T, base, id string) sseHistory {
	t.Helper()
	var h sseHistory
	last := ""
	for {
		evs := decodeSSE(t, sseBody(t, base, id, last))
		for i := range evs {
			ev := evs[i]
			if ev.Seq != len(h) {
				t.Fatalf("job %s: stream resumed after %q carries seq %d, want %d", id, last, ev.Seq, len(h))
			}
			h = append(h, &ev)
		}
		if n := len(h); n > 0 && (h[n-1].Type == "result" || h[n-1].Type == "error") {
			return h
		}
		if len(h) > 64<<10 {
			t.Fatalf("job %s: no terminal event in %d events", id, len(h))
		}
		// The event at seq len(h) ends the stream unsent: skip it.
		h = append(h, nil)
		last = strconv.Itoa(len(h) - 1)
	}
}

// reference renders the body the events handler must send for
// Last-Event-ID last ("" for none): the events after that ID (all of them
// for no ID, a negative one or one that does not parse), up to the first
// event json.Marshal rejects.
func (h sseHistory) reference(t *testing.T, last string) string {
	t.Helper()
	after := -1
	if n, err := strconv.Atoi(last); err == nil && n >= 0 {
		after = n
	}
	var b strings.Builder
	for seq, ev := range h {
		if seq <= after {
			continue
		}
		if ev == nil {
			break
		}
		data, err := json.Marshal(*ev)
		if err != nil {
			t.Fatalf("re-marshaling event %d: %v", seq, err)
		}
		fmt.Fprintf(&b, "event: %s\nid: %d\ndata: %s\n\n", ev.Type, ev.Seq, data)
	}
	return b.String()
}

// lastEventIDs are the Last-Event-ID values checked against a job of n
// events: none, the largest int64 (whose successor overflows), and every
// ID from −1 to n+2.
func lastEventIDs(n int) []string {
	ids := []string{"", strconv.FormatInt(math.MaxInt64, 10)}
	for id := -1; id <= n+2; id++ {
		ids = append(ids, strconv.Itoa(id))
	}
	return ids
}

// checkReplay compares every replay of a finished job with its reference.
func checkReplay(t *testing.T, base, name, id string) sseHistory {
	t.Helper()
	h := streamHistory(t, base, id)
	for _, last := range lastEventIDs(len(h)) {
		if got, want := sseBody(t, base, id, last), h.reference(t, last); got != want {
			t.Errorf("%s: Last-Event-ID %q: body differs from the reference\n got %q\nwant %q", name, last, clip(got), clip(want))
		}
	}
	return h
}

// clip shortens a body for a failure message.
func clip(s string) string {
	if len(s) > 600 {
		return s[:300] + " … " + s[len(s)-300:]
	}
	return s
}

// TestSSEReplayMatchesReference replays finished jobs of every mode, on an
// upload and on a dataset entry, a failed job, a job canceled while queued
// and a job one of whose epoch records json.Marshal rejects, from every
// Last-Event-ID, and checks each body against its reference rendering.
func TestSSEReplayMatchesReference(t *testing.T) {
	mm := uploadBody(t)
	cases := []struct {
		name  string
		req   sched.JobRequest
		state string
	}{
		{"static/upload", sched.JobRequest{Mode: "static", Kernel: "spmspm", MatrixMarket: mm}, sched.StateDone},
		{"static/dataset", sched.JobRequest{Mode: "static", Kernel: "spmspv", Matrix: "R04", Counters: true}, sched.StateDone},
		{"adaptive/upload", sched.JobRequest{Mode: "adaptive", Kernel: "spmspv", MatrixMarket: mm}, sched.StateDone},
		{"adaptive/dataset", sched.JobRequest{Mode: "adaptive", Kernel: "bfs", Matrix: "R04"}, sched.StateDone},
		{"resilient/upload", sched.JobRequest{Mode: "resilient", Kernel: "spmspv", MatrixMarket: mm, Faults: "nan=0.2,seed=3", Counters: true}, sched.StateDone},
		{"resilient/dataset", sched.JobRequest{Mode: "resilient", Kernel: "sssp", Matrix: "R04", Faults: "nan=0.2,seed=5", Counters: true}, sched.StateDone},
		{"batch/upload", sched.JobRequest{Mode: "batch", Kernel: "spmspv", MatrixMarket: mm, Count: 2}, sched.StateDone},
		{"batch/dataset", sched.JobRequest{Mode: "batch", Kernel: "spmspm", Matrix: "R04", Count: 2}, sched.StateDone},
		// A deadline that has passed before the job starts fails it.
		{"failed", sched.JobRequest{Mode: "static", Matrix: "R04", TimeoutSec: 1e-9}, sched.StateFailed},
	}
	_, c := startServer(t, server.Config{Sched: sched.Config{Workers: 2}})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	ids := make([]string, len(cases))
	for i, tc := range cases {
		st, err := c.Submit(ctx, tc.req)
		if err != nil {
			t.Fatalf("%s: submit: %v", tc.name, err)
		}
		ids[i] = st.ID
	}
	for i, tc := range cases {
		final, err := c.Wait(ctx, ids[i])
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if final.State != tc.state {
			t.Fatalf("%s: ended %s (%s), want %s", tc.name, final.State, final.Error, tc.state)
		}
		h := checkReplay(t, c.Base, tc.name, ids[i])
		if tc.req.Mode != "batch" && tc.state == sched.StateDone && h.epochs() != final.Result.Epochs {
			t.Errorf("%s: %d epoch events, result says %d epochs", tc.name, h.epochs(), final.Result.Epochs)
		}
	}

	t.Run("canceled-while-queued", func(t *testing.T) {
		ic := idleServer(t, server.Config{})
		st, err := ic.Submit(ctx, sched.JobRequest{Matrix: "R04"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ic.Cancel(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		checkReplay(t, ic.Base, "canceled-while-queued", st.ID)
	})

	t.Run("unencodable-epoch", func(t *testing.T) {
		// An executor that streams an epoch record with a NaN counter
		// between two plain ones.
		bad := obs.EpochRecord{Epoch: 1, Config: "bad", Counters: map[string]float64{"x": math.NaN()}}
		exec := func(ctx context.Context, j *sched.Job, attempt int) (*sched.JobResult, bool, error) {
			j.Emit(obs.EpochRecord{Epoch: 0, Config: "a", DurSec: 0.5})
			j.Emit(bad)
			j.Emit(obs.EpochRecord{Epoch: 2, Config: "c", DurSec: 0.25})
			return &sched.JobResult{Epochs: 3}, false, nil
		}
		_, ec := startServer(t, server.Config{Exec: exec})
		st, err := ec.Submit(ctx, sched.JobRequest{Mode: "static", MatrixMarket: mm})
		if err != nil {
			t.Fatal(err)
		}
		if final, err := ec.Wait(ctx, st.ID); err != nil || final.State != sched.StateDone {
			t.Fatalf("job ended %+v, %v; want done", final, err)
		}
		h := checkReplay(t, ec.Base, "unencodable-epoch", st.ID)
		// queued, running, epoch 0, the rejected epoch, epoch 2, result.
		if len(h) != 6 || h[3] != nil || h[4] == nil || h[4].Epoch == nil || h[4].Epoch.Config != "c" {
			t.Fatalf("history = %d events, want the fourth unsent and the fifth epoch 2", len(h))
		}
	})
}

// epochs counts the history's epoch events.
func (h sseHistory) epochs() int {
	n := 0
	for _, ev := range h {
		if ev != nil && ev.Type == "epoch" {
			n++
		}
	}
	return n
}

// gatedExec is an executor whose jobs each emit epochs epoch records,
// waiting before each for a value on gate, and then finish done.
func gatedExec(epochs int, gate <-chan struct{}) sched.ExecFunc {
	return func(ctx context.Context, j *sched.Job, attempt int) (*sched.JobResult, bool, error) {
		for i := 0; i < epochs; i++ {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			j.Emit(obs.EpochRecord{Epoch: i, Config: fmt.Sprintf("cfg-%d", i), DurSec: float64(i) / 8})
		}
		return &sched.JobResult{Epochs: epochs}, false, nil
	}
}

// feedGate lets a gatedExec job emit n more epochs.
func feedGate(t *testing.T, ctx context.Context, gate chan<- struct{}, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case gate <- struct{}{}:
		case <-ctx.Done():
			t.Fatal("no job took the next epoch")
		}
	}
}

// TestSSESealWhileStreaming: subscribers that join a job's stream at
// several Last-Event-IDs while it runs, and so read it live before and
// from its sealed frames after it ends, each get exactly the reference
// suffix. Run it under -race: the seal swaps the log's events for their
// frames while the subscribers read.
func TestSSESealWhileStreaming(t *testing.T) {
	const epochs = 40
	gate := make(chan struct{})
	_, c := startServer(t, server.Config{Exec: gatedExec(epochs, gate)})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := c.Submit(ctx, sched.JobRequest{Mode: "static", Matrix: "R04"})
	if err != nil {
		t.Fatal(err)
	}
	feedGate(t, ctx, gate, 5)
	lasts := []string{"", "-1", "0", "3", "10", "25", "41", "42", "43", "60", strconv.FormatInt(math.MaxInt64, 10)}
	bodies := make([]chan string, len(lasts))
	for i, last := range lasts {
		bodies[i] = make(chan string, 1)
		go func(last string, out chan<- string) {
			body, err := fetchSSE(c.Base, st.ID, last)
			if err != nil {
				body = err.Error() // differs from every reference
			}
			out <- body
		}(last, bodies[i])
	}
	waitMetric(t, c, fmt.Sprintf("server_sse_clients %d", len(lasts)))
	feedGate(t, ctx, gate, epochs-5)
	if final, err := c.Wait(ctx, st.ID); err != nil || final.State != sched.StateDone {
		t.Fatalf("job ended %+v, %v; want done", final, err)
	}
	h := streamHistory(t, c.Base, st.ID)
	if len(h) != epochs+3 {
		t.Fatalf("history holds %d events, want %d", len(h), epochs+3)
	}
	for i, last := range lasts {
		if got, want := <-bodies[i], h.reference(t, last); got != want {
			t.Errorf("Last-Event-ID %q: streamed body differs from the reference\n got %q\nwant %q", last, clip(got), clip(want))
		}
	}
}

// retainedBytes reads server_retained_bytes off /metrics.
func retainedBytes(t *testing.T, c *client.Client) int {
	t.Helper()
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, "server_retained_bytes "); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return int(n)
		}
	}
	t.Fatal("no server_retained_bytes on /metrics")
	return 0
}

// TestRetainedBytesGauge: server_retained_bytes rises by each finished
// job's sealed stream, its frames and one 4-byte offset per event and one
// more, and falls back to zero once -max-jobs retention has evicted every
// finished job.
func TestRetainedBytesGauge(t *testing.T) {
	gate := make(chan struct{})
	_, c := startServer(t, server.Config{Exec: gatedExec(3, gate), Sched: sched.Config{Workers: 1, MaxJobs: 2}})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if got := retainedBytes(t, c); got != 0 {
		t.Fatalf("fresh server retains %d bytes", got)
	}
	want := 0
	for i := 0; i < 2; i++ {
		st, err := c.Submit(ctx, sched.JobRequest{Mode: "static", Matrix: "R04"})
		if err != nil {
			t.Fatal(err)
		}
		feedGate(t, ctx, gate, 3)
		if final, err := c.Wait(ctx, st.ID); err != nil || final.State != sched.StateDone {
			t.Fatalf("job ended %+v, %v; want done", final, err)
		}
		h := streamHistory(t, c.Base, st.ID)
		want += len(sseBody(t, c.Base, st.ID, "")) + 4*(len(h)+1)
		// A client sees the terminal event before the job's seal is done.
		waitMetric(t, c, fmt.Sprintf("server_retained_bytes %d\n", want))
	}
	// Two live jobs, one running and one queued, push both finished ones
	// out of a retention of two.
	var live []string
	for i := 0; i < 2; i++ {
		st, err := c.Submit(ctx, sched.JobRequest{Mode: "static", Matrix: "R04"})
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, st.ID)
	}
	if got := retainedBytes(t, c); got != 0 {
		t.Errorf("with every finished job evicted the gauge reads %d, want 0", got)
	}
	if jobs, err := c.List(ctx); err != nil || len(jobs) != 2 {
		t.Fatalf("retained jobs = %d (%v), want the 2 live ones", len(jobs), err)
	}
	feedGate(t, ctx, gate, 3*len(live))
	for _, id := range live {
		if _, err := c.Wait(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if got := retainedBytes(t, c); got == 0 {
		t.Error("gauge did not rise again as the live jobs finished")
	}
}
