package server_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"

	"sparseadapt/internal/matrix"
	"sparseadapt/internal/obs"
	"sparseadapt/internal/sched"
	"sparseadapt/internal/server"
)

// uploadBody is a seeded 64×64 uniform MatrixMarket body, so the upload
// case runs a matrix no dataset entry generates.
func uploadBody(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	if err := matrix.WriteMatrixMarket(&b, matrix.Uniform(rand.New(rand.NewSource(5)), 64, 64, 320)); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestJobPathDigests fences what a daemon job runs. Each request's result
// JSON and epoch stream hash to the digest recorded here, so a change to
// how the server resolves a request (scale, objective, operands, policy,
// start configuration, seed) fails the test even where the bench's daemon
// mix, which sends only default-policy uploads, cannot see it. The table
// covers every kernel × mode, a dataset entry and an upload, and every
// override a request can carry.
func TestJobPathDigests(t *testing.T) {
	mm := uploadBody(t)
	cases := []struct {
		name   string
		req    sched.JobRequest
		digest string
	}{
		{"spmspm/static", sched.JobRequest{Mode: "static", Kernel: "spmspm"}, "04853e5a4fe00183"},
		{"spmspm/adaptive", sched.JobRequest{Mode: "adaptive", Kernel: "spmspm"}, "25e8f1b25894b060"},
		{"spmspm/resilient", sched.JobRequest{Mode: "resilient", Kernel: "spmspm", Faults: "nan=0.1,stuck=0.05,seed=7"}, "0216697a6277ffcc"},
		{"spmspm/batch", sched.JobRequest{Mode: "batch", Kernel: "spmspm", Count: 2}, "54468e6d39e1b746"},
		{"spmspv/static", sched.JobRequest{Mode: "static", Kernel: "spmspv"}, "630dc094cae4e353"},
		{"spmspv/adaptive", sched.JobRequest{Mode: "adaptive", Kernel: "spmspv"}, "e24fb9f586eac437"},
		{"spmspv/resilient", sched.JobRequest{Mode: "resilient", Kernel: "spmspv", Faults: "nan=0.1,stuck=0.05,seed=7"}, "c5507315d1977cce"},
		{"spmspv/batch", sched.JobRequest{Mode: "batch", Kernel: "spmspv", Count: 2}, "dfb11d49bf93d831"},
		{"bfs/static", sched.JobRequest{Mode: "static", Kernel: "bfs"}, "3a0fd1494ae15b02"},
		{"bfs/adaptive", sched.JobRequest{Mode: "adaptive", Kernel: "bfs"}, "a4c463155fb36d0e"},
		{"bfs/resilient", sched.JobRequest{Mode: "resilient", Kernel: "bfs", Faults: "nan=0.1,stuck=0.05,seed=7"}, "632ddf3a556f51d8"},
		{"bfs/batch", sched.JobRequest{Mode: "batch", Kernel: "bfs", Count: 2}, "16a8e5d792e17070"},
		{"sssp/static", sched.JobRequest{Mode: "static", Kernel: "sssp"}, "baf81f2b88be6ad5"},
		{"sssp/adaptive", sched.JobRequest{Mode: "adaptive", Kernel: "sssp"}, "c99f373fca3b239e"},
		{"sssp/resilient", sched.JobRequest{Mode: "resilient", Kernel: "sssp", Faults: "nan=0.1,stuck=0.05,seed=7"}, "28cbff549e9b1426"},
		{"sssp/batch", sched.JobRequest{Mode: "batch", Kernel: "sssp", Count: 2}, "80484708a8d97baf"},
		{"upload/spmspv/adaptive", sched.JobRequest{Mode: "adaptive", Kernel: "spmspv", MatrixMarket: mm}, "729393a22d4e65b7"},
		{"upload/spmspm/static", sched.JobRequest{Mode: "static", Kernel: "spmspm", MatrixMarket: mm}, "9dbf213813ed50cb"},
		{"policy/conservative", sched.JobRequest{Kernel: "spmspv", Policy: "conservative"}, "ccd35fe75d4b3e56"},
		{"policy/aggressive", sched.JobRequest{Kernel: "spmspv", Policy: "aggressive"}, "af0f464c942723b4"},
		{"policy/aggressive-spmspm", sched.JobRequest{Kernel: "spmspm", Policy: "aggressive"}, "03acc0251ba64bca"},
		{"policy/hybrid", sched.JobRequest{Kernel: "spmspm", Policy: "hybrid"}, "25e8f1b25894b060"},
		{"tolerance", sched.JobRequest{Kernel: "spmspv", Tolerance: 0.1}, "99511f8cea33f864"},
		// SpMSpM's conservative default drops the tolerance, so a hybrid
		// override runs at zero tolerance whatever the request says.
		{"tolerance/spmspm-hybrid", sched.JobRequest{Kernel: "spmspm", Policy: "hybrid", Tolerance: 0.3}, "25e8f1b25894b060"},
		{"opt_mode/pp", sched.JobRequest{Kernel: "spmspv", OptMode: "pp"}, "98f9f7a98f6592af"},
		{"config/best-avg", sched.JobRequest{Mode: "static", Kernel: "spmspv", Config: "best-avg"}, "06c48cd021025e9d"},
		{"config/max", sched.JobRequest{Mode: "adaptive", Kernel: "spmspv", Config: "max"}, "55657177c46bcf9e"},
		{"seed", sched.JobRequest{Kernel: "spmspv", Seed: 7}, "d33ff7c736e0ae10"},
		{"counters/adaptive", sched.JobRequest{Kernel: "spmspv", Counters: true}, "5da013b3b0418f1d"},
		{"counters/static", sched.JobRequest{Mode: "static", Kernel: "spmspv", Counters: true}, "5d5688d7bbec37e2"},
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
		if final.State != sched.StateDone || final.Result == nil {
			t.Fatalf("%s: ended %s: %s", tc.name, final.State, final.Error)
		}
		var epochs []obs.EpochRecord
		if err := c.Stream(ctx, ids[i], func(ev sched.Event) error {
			if ev.Type == "epoch" && ev.Epoch != nil {
				epochs = append(epochs, *ev.Epoch)
			}
			return nil
		}); err != nil {
			t.Fatalf("%s: stream: %v", tc.name, err)
		}
		if got := jobDigest(t, *final.Result, epochs); got != tc.digest {
			t.Errorf("%s: digest %s, want %s (epochs=%d reconfigs=%d)", tc.name, got, tc.digest, final.Result.Epochs, final.Result.Reconfigs)
		}
	}
}

// jobDigest hashes a result's JSON followed by one JSON line per streamed
// epoch record.
func jobDigest(t *testing.T, res sched.JobResult, epochs []obs.EpochRecord) string {
	t.Helper()
	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(res); err != nil {
		t.Fatal(err)
	}
	for _, rec := range epochs {
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
