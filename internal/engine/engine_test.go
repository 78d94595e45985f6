package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapOrderedResults verifies result[i] corresponds to tasks[i] no
// matter how completion interleaves across workers.
func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		e := New(Options{Workers: workers})
		tasks := make([]Task[int], 64)
		for i := range tasks {
			i := i
			tasks[i] = Task[int]{Compute: func(ctx context.Context) (int, error) {
				if i%3 == 0 {
					time.Sleep(time.Millisecond) // shuffle completion order
				}
				return i * i, nil
			}}
		}
		got, err := Map(context.Background(), e, tasks)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestMapNilEngineSerial checks the nil engine runs every task exactly once.
func TestMapNilEngineSerial(t *testing.T) {
	var ran atomic.Int64
	tasks := make([]Task[int], 10)
	for i := range tasks {
		i := i
		tasks[i] = Task[int]{Compute: func(ctx context.Context) (int, error) {
			ran.Add(1)
			return i, nil
		}}
	}
	got, err := Map(context.Background(), nil, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 10 || got[7] != 7 {
		t.Fatalf("ran %d tasks, got[7]=%d", ran.Load(), got[7])
	}
}

// TestMapFirstErrorWins asserts the reported error is the lowest-index
// failure and that it cancels the remaining tasks.
func TestMapFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	e := New(Options{Workers: 4})
	var started atomic.Int64
	tasks := make([]Task[int], 100)
	for i := range tasks {
		i := i
		tasks[i] = Task[int]{Compute: func(ctx context.Context) (int, error) {
			started.Add(1)
			if i == 3 {
				return 0, boom
			}
			time.Sleep(500 * time.Microsecond)
			return i, nil
		}}
	}
	_, err := Map(context.Background(), e, tasks)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "task 3/") {
		t.Fatalf("error does not name the first failing task: %v", err)
	}
	if n := started.Load(); n == 100 {
		t.Error("cancellation did not skip any queued task")
	}
}

// TestMapPanicBecomesError asserts a panicking task surfaces as an error
// carrying the panic value, not a crashed process.
func TestMapPanicBecomesError(t *testing.T) {
	e := New(Options{Workers: 2})
	tasks := []Task[int]{
		{Compute: func(ctx context.Context) (int, error) { return 1, nil }},
		{Compute: func(ctx context.Context) (int, error) { panic("kaboom") }},
	}
	_, err := Map(context.Background(), e, tasks)
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic not converted to error: %v", err)
	}
}

// TestMapContextCancel verifies an external cancellation stops the batch.
// Every task after the first waits for the cancellation before it
// finishes, so no worker can complete the batch before cancel runs; Map
// returns nil here only if it ignores the cancellation.
func TestMapContextCancel(t *testing.T) {
	e := New(Options{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int64
	tasks := make([]Task[int], 50)
	for i := range tasks {
		i := i
		tasks[i] = Task[int]{Compute: func(ctx context.Context) (int, error) {
			if i == 0 {
				cancel()
			} else {
				<-ctx.Done()
			}
			done.Add(1)
			return i, nil
		}}
	}
	_, err := Map(ctx, e, tasks)
	if err == nil {
		t.Fatal("cancelled map returned nil error")
	}
	if done.Load() == 50 {
		t.Error("cancellation did not stop the batch early")
	}
}

// TestMapCachedRoundTrip checks that a cached task computes once and the
// second batch is served from memory with an identical value.
func TestMapCachedRoundTrip(t *testing.T) {
	cache, err := NewCache(64, "")
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 4, Cache: cache})
	var computed atomic.Int64
	mk := func() []Task[[]float64] {
		tasks := make([]Task[[]float64], 8)
		for i := range tasks {
			i := i
			tasks[i] = Task[[]float64]{
				Key: NewHasher("t/v1").Int(i).Sum(),
				Compute: func(ctx context.Context) ([]float64, error) {
					computed.Add(1)
					return []float64{float64(i), float64(i) / 3}, nil
				},
			}
		}
		return tasks
	}
	first, err := Map(context.Background(), e, mk())
	if err != nil {
		t.Fatal(err)
	}
	second, err := Map(context.Background(), e, mk())
	if err != nil {
		t.Fatal(err)
	}
	if computed.Load() != 8 {
		t.Fatalf("computed %d times, want 8 (second batch should be all hits)", computed.Load())
	}
	for i := range first {
		if fmt.Sprint(first[i]) != fmt.Sprint(second[i]) {
			t.Fatalf("cached value differs at %d: %v vs %v", i, first[i], second[i])
		}
	}
	sn := e.Stats.Snapshot()
	if sn.CacheHits != 8 || sn.CacheMisses != 8 {
		t.Fatalf("stats hits=%d misses=%d, want 8/8", sn.CacheHits, sn.CacheMisses)
	}
}

// TestStatsReport sanity-checks the observability surface.
func TestStatsReport(t *testing.T) {
	e := New(Options{Workers: 2})
	tasks := make([]Task[int], 5)
	for i := range tasks {
		tasks[i] = Task[int]{Compute: func(ctx context.Context) (int, error) { return 0, nil }}
	}
	if _, err := Map(context.Background(), e, tasks); err != nil {
		t.Fatal(err)
	}
	sn := e.Stats.Snapshot()
	if sn.Queued != 5 || sn.Done != 5 || sn.Failed != 0 || sn.Running != 0 {
		t.Fatalf("snapshot %+v", sn)
	}
	var lat int64
	for _, n := range sn.Latency {
		lat += n
	}
	if lat != 5 {
		t.Fatalf("latency histogram holds %d samples, want 5", lat)
	}
	rep := e.Stats.Report()
	for _, want := range []string{"5 tasks", "hit rate", "wall"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
	if line := e.Stats.Line(); !strings.Contains(line, "5/5 done") {
		t.Fatalf("line: %s", line)
	}
}

// TestProgressReporter checks progress lines reach the writer while a slow
// batch runs.
func TestProgressReporter(t *testing.T) {
	var buf syncBuffer
	e := New(Options{Workers: 2, Progress: &buf, ProgressEvery: 5 * time.Millisecond})
	tasks := make([]Task[int], 4)
	for i := range tasks {
		tasks[i] = Task[int]{Compute: func(ctx context.Context) (int, error) {
			time.Sleep(20 * time.Millisecond)
			return 0, nil
		}}
	}
	if _, err := Map(context.Background(), e, tasks); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "engine:") {
		t.Fatalf("no progress lines emitted: %q", buf.String())
	}
}

// TestDeriveSeedIndependence spot-checks that derived seeds differ across
// salt paths and are order-sensitive.
func TestDeriveSeedIndependence(t *testing.T) {
	seen := map[int64]bool{}
	for i := int64(0); i < 100; i++ {
		for j := int64(0); j < 10; j++ {
			s := DeriveSeed(1, i, j)
			if seen[s] {
				t.Fatalf("duplicate derived seed at (%d,%d)", i, j)
			}
			seen[s] = true
		}
	}
	if DeriveSeed(1, 2, 3) == DeriveSeed(1, 3, 2) {
		t.Error("derived seed ignores salt order")
	}
	if DeriveSeed(1, 2, 3) != DeriveSeed(1, 2, 3) {
		t.Error("derived seed is not deterministic")
	}
}

// syncBuffer is a concurrency-safe strings.Builder for the reporter test.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
