package server

import (
	"encoding/json"
	"math"
	"slices"
	"testing"
	"time"

	"sparseadapt/internal/matrix"
	"sparseadapt/internal/sched"
)

func TestValidateDefaults(t *testing.T) {
	var r sched.JobRequest
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	want := sched.JobRequest{Mode: sched.ModeAdaptive, Kernel: "spmspv", Matrix: "R04", Scale: "test", OptMode: "ee", Config: "baseline"}
	if r != want {
		t.Errorf("defaults = %+v, want %+v", r, want)
	}
	b := sched.JobRequest{Mode: sched.ModeBatch}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.Count != 4 {
		t.Errorf("batch count default = %d, want 4", b.Count)
	}
}

func TestValidateRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  sched.JobRequest
	}{
		{"mode", sched.JobRequest{Mode: "warp"}},
		{"kernel", sched.JobRequest{Kernel: "gemm"}},
		{"matrix", sched.JobRequest{Matrix: "ZZZ"}},
		{"both-inputs", sched.JobRequest{Matrix: "R04", MatrixMarket: "%%MatrixMarket matrix coordinate real general\n"}},
		{"not-mm", sched.JobRequest{MatrixMarket: "1 1 1\n"}},
		{"scale", sched.JobRequest{Scale: "huge"}},
		{"opt", sched.JobRequest{OptMode: "fast"}},
		{"policy", sched.JobRequest{Policy: "bold"}},
		{"tolerance", sched.JobRequest{Tolerance: 11}},
		{"neg-tolerance", sched.JobRequest{Tolerance: -1}},
		{"config", sched.JobRequest{Config: "turbo"}},
		{"faults-mode", sched.JobRequest{Faults: "nan=0.1"}},
		{"count-mode", sched.JobRequest{Count: 2}},
		{"count-range", sched.JobRequest{Mode: sched.ModeBatch, Count: 9999}},
		{"neg-timeout", sched.JobRequest{TimeoutSec: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.req.Validate(); err == nil {
				t.Errorf("Validate(%+v) accepted, want error", tc.req)
			}
		})
	}
}

func TestRateLimiterRefill(t *testing.T) {
	rl := newRateLimiter(1, 2) // 1 token/s, burst 2
	now := time.Unix(0, 0)
	for i := 0; i < 2; i++ {
		if ok, _ := rl.allow("a", now); !ok {
			t.Fatalf("request %d within burst rejected", i)
		}
	}
	ok, wait := rl.allow("a", now)
	if ok {
		t.Fatal("empty bucket must reject")
	}
	if wait <= 0 || wait > time.Second {
		t.Errorf("wait = %v, want (0, 1s]", wait)
	}
	// A different client has its own bucket.
	if ok, _ := rl.allow("b", now); !ok {
		t.Error("other client must not be throttled")
	}
	// After the refill interval the original client gets a token back.
	if ok, _ := rl.allow("a", now.Add(1100*time.Millisecond)); !ok {
		t.Error("bucket did not refill")
	}
	// Disabled limiter always allows.
	if ok, _ := newRateLimiter(0, 1).allow("a", now); !ok {
		t.Error("rate 0 must disable limiting")
	}
}

// TestRateLimiterInfiniteRate: a new bucket starts full instead of
// refilling by 0 × Inf, so an infinite rate never throttles.
func TestRateLimiterInfiniteRate(t *testing.T) {
	rl := newRateLimiter(math.Inf(1), 1)
	now := time.Unix(0, 0)
	for i := 0; i < 3; i++ {
		if ok, _ := rl.allow("a", now.Add(time.Duration(i)*time.Millisecond)); !ok {
			t.Fatalf("request %d rejected at an infinite rate", i)
		}
	}
}

// FuzzDecodeJobRequest fuzzes the public decoding surface: arbitrary bytes
// must never panic, and an accepted request must be stable under
// re-validation and JSON round-tripping.
func FuzzDecodeJobRequest(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"mode":"adaptive","kernel":"spmspv","matrix":"R04","scale":"test"}`))
	f.Add([]byte(`{"mode":"batch","count":8}`))
	f.Add([]byte(`{"mode":"resilient","faults":"nan=0.1,stuck=0.05,seed=7"}`))
	f.Add([]byte(`{"matrix_market":"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0\n"}`))
	f.Add([]byte(`{"tolerance":0.4,"timeout_sec":1.5,"counters":true}`))
	f.Add([]byte(`{"mode":`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"mode":"adaptive"}{"x":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, upload, err := sched.DecodeJobRequest(data)
		if err != nil {
			return
		}
		// The parse handed to the job is the one the job would make.
		if req.MatrixMarket == "" {
			if upload != nil {
				t.Fatal("request on a dataset entry carries a parse")
			}
		} else if want, err := matrix.ParseMatrixMarket(req.MatrixMarket); err != nil || !sameCOO(upload, want) {
			t.Fatalf("carried parse differs from parsing the upload (%v)", err)
		}
		if err := req.Validate(); err != nil {
			t.Fatalf("accepted request fails re-validation: %v", err)
		}
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not marshal: %v", err)
		}
		again, _, err := sched.DecodeJobRequest(b)
		if err != nil {
			t.Fatalf("round-tripped request rejected: %v\n%s", err, b)
		}
		if again != req {
			t.Fatalf("round trip changed the request:\n got %+v\nwant %+v", again, req)
		}
	})
}

// sameCOO reports whether two COO matrices hold the same entries in the
// same order, values compared by their bits.
func sameCOO(a, b *matrix.COO) bool {
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	return a != nil && b != nil && a.Rows == b.Rows && a.Cols == b.Cols &&
		slices.Equal(a.R, b.R) && slices.Equal(a.C, b.C) &&
		slices.EqualFunc(a.V, b.V, func(x, y float64) bool { return bits(x) == bits(y) })
}
