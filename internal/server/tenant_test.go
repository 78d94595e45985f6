package server_test

// Multi-tenant admission tests: the X-Tenant-ID/tenant-field surface, the
// per-tenant 429 contract (own Retry-After, no global slot consumed), the
// queued-cancel slot release, and a -race soak with three tenants of mixed
// priority under chaos injection asserting zero starvation and quota
// conservation (every admitted slot comes back).

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sparseadapt/internal/fault"
	"sparseadapt/internal/sched"
	"sparseadapt/internal/server"
	"sparseadapt/internal/server/client"
	"sparseadapt/internal/tenant"
)

// startTenantServer is startServer plus direct access to the base URL for
// raw header-level requests. Leaving start false keeps the worker pool
// idle, so queued jobs hold their tenant slots deterministically.
func startTenantServer(t *testing.T, cfg server.Config, start bool) (*server.Server, *httptest.Server) {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if start {
		s.Start()
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			s.Drain(ctx) //nolint:errcheck // best-effort test teardown
		})
	}
	return s, ts
}

func postJob(t *testing.T, url, body string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestTenantQuotaAdmission(t *testing.T) {
	_, ts := startTenantServer(t, server.Config{
		Sched:       sched.Config{QueueDepth: 16},
		TenantQuota: tenant.Quota{MaxInflight: 1},
	}, false)

	// The tenant may arrive via the X-Tenant-ID header; the server copies
	// it into the request so forwarding and status reads carry it, and the
	// priority defaults to batch.
	resp := postJob(t, ts.URL, `{"mode":"static","matrix":"R04","scale":"test"}`,
		map[string]string{"X-Tenant-ID": "acme"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("header submit: %d", resp.StatusCode)
	}
	var st sched.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Request.Tenant != "acme" || st.Request.Priority != "batch" {
		t.Fatalf("tenant/priority not adopted: %+v", st.Request)
	}

	// Second job exceeds MaxInflight=1: per-tenant 429 with the tenant's
	// own Retry-After (no history yet → the 1s floor, not the global queue
	// hint).
	resp = postJob(t, ts.URL, `{"mode":"static","matrix":"R04","scale":"test","tenant":"acme"}`, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %d", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want tenant floor \"1\"", ra)
	}
	var apiErr struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil || !strings.Contains(apiErr.Error, "tenant") {
		t.Fatalf("429 body: %q, %v", apiErr.Error, err)
	}

	// The tenant rejection consumed no global capacity: a tenant-less
	// submission and another tenant both still get in.
	if resp = postJob(t, ts.URL, `{"mode":"static","matrix":"R04","scale":"test"}`, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tenant-less submit after tenant 429: %d", resp.StatusCode)
	}
	if resp = postJob(t, ts.URL, `{"mode":"static","matrix":"R04","scale":"test","tenant":"zeta","priority":"interactive"}`, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other-tenant submit: %d", resp.StatusCode)
	}

	// Malformed tenant metadata is rejected before admission.
	if resp = postJob(t, ts.URL, `{"mode":"static","matrix":"R04","scale":"test","tenant":"acme","priority":"platinum"}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad priority: %d", resp.StatusCode)
	}
	if resp = postJob(t, ts.URL, `{"mode":"static","matrix":"R04","scale":"test","priority":"batch"}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("priority without tenant: %d", resp.StatusCode)
	}

	// /v1/tenants reports both tenants, sorted, with acme's rejection.
	var snaps []tenant.TenantSnapshot
	r2, err := http.Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if err := json.NewDecoder(r2.Body).Decode(&snaps); err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 || snaps[0].ID != "acme" || snaps[1].ID != "zeta" {
		t.Fatalf("tenants snapshot: %+v", snaps)
	}
	if snaps[0].Inflight != 1 || snaps[0].RejectedQuota != 1 || snaps[0].Class != "batch" {
		t.Fatalf("acme snapshot: %+v", snaps[0])
	}
	if snaps[1].Class != "interactive" {
		t.Fatalf("zeta snapshot: %+v", snaps[1])
	}

	// Canceling acme's queued job frees its slot even though the Finished
	// hook never fires for queued cancels.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	r3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", r3.StatusCode)
	}
	if resp = postJob(t, ts.URL, `{"mode":"static","matrix":"R04","scale":"test","tenant":"acme"}`, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-cancel submit: %d", resp.StatusCode)
	}
}

// TestTenantSoak runs three tenants of mixed priority against a chaotic
// server (first attempts fail, journal writes error, cache entries corrupt)
// and asserts the two multi-tenant invariants: zero starvation (every
// tenant finishes every job, scavenger included) and quota conservation
// (no inflight slot leaks; admitted == finished once the dust settles).
func TestTenantSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("tenant soak")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	inj := fault.NewChaos(fault.ChaosSpec{
		FailFirst: 1, JournalErr: 0.05, CacheCorrupt: 0.2, Seed: 77,
	})
	srv, ts := startTenantServer(t, server.Config{
		Sched: sched.Config{
			Workers: 3, QueueDepth: 64, MaxAttempts: 3,
			// FailFirst=1 + a 20ms retry floor give every job a guaranteed
			// minimum runtime, so back-to-back submission reliably presses each
			// tenant's inflight depth against MaxInflight.
			RetryBaseDelay: 20 * time.Millisecond, RetryMaxDelay: 40 * time.Millisecond,
			// Every first attempt fails by design; the breaker would correctly
			// shed under that, which is not what this test probes.
			BreakerThreshold: 2,
		},
		StoreDir: t.TempDir(), CacheDir: t.TempDir(),
		Chaos:       inj,
		TenantQuota: tenant.Quota{MaxInflight: 2, RatePerSec: 500, Burst: 4},
	}, true)

	tenants := []struct {
		id, prio string
	}{
		{"alice", "interactive"},
		{"bob", "batch"},
		{"carol", "scavenger"},
	}
	const jobsPerTenant = 8

	var wg sync.WaitGroup
	var mu sync.Mutex
	done := map[string]int{}
	for ti, tn := range tenants {
		wg.Add(1)
		go func(ti int, id, prio string) {
			defer wg.Done()
			c := client.New(ts.URL)
			// Tight submission against MaxInflight=2 guarantees tenant
			// 429s; the retry policy follows the server's hint, capped so
			// the soak stays fast.
			c.Retry = client.RetryPolicy{Max: 400, BaseWait: 2 * time.Millisecond, MaxWait: 20 * time.Millisecond}
			// Submit everything up front so the tenant's inflight depth
			// actually presses against MaxInflight; then wait for the lot.
			ids := make([]string, 0, jobsPerTenant)
			for i := 0; i < jobsPerTenant; i++ {
				req := sched.JobRequest{
					Mode: "static", Matrix: "R04", Scale: "test",
					Seed: int64(100*ti + i), Tenant: id, Priority: prio,
				}
				st, err := c.Submit(ctx, req)
				if err != nil {
					t.Errorf("%s submit %d: %v", id, i, err)
					return
				}
				ids = append(ids, st.ID)
			}
			for i, jid := range ids {
				final, err := c.Wait(ctx, jid)
				if err != nil {
					t.Errorf("%s wait %d: %v", id, i, err)
					return
				}
				if final.State != sched.StateDone {
					t.Errorf("%s job %d ended %s: %s", id, i, final.State, final.Error)
				}
				mu.Lock()
				done[id]++
				mu.Unlock()
			}
		}(ti, tn.id, tn.prio)
	}
	wg.Wait()

	for _, tn := range tenants {
		if done[tn.id] != jobsPerTenant {
			t.Errorf("starvation: tenant %s finished %d/%d jobs", tn.id, done[tn.id], jobsPerTenant)
		}
	}
	// A job's terminal state becomes pollable a moment before the Finished
	// hook releases its tenant slot, so give the accounting a bounded
	// window to settle before asserting conservation.
	settle := time.Now().Add(5 * time.Second)
	for srv.Tenants().Active() != 0 && time.Now().Before(settle) {
		time.Sleep(5 * time.Millisecond)
	}
	rejected := int64(0)
	for _, snap := range srv.Tenants().Snapshot() {
		rejected += snap.RejectedQuota + snap.RejectedRate
		if snap.Inflight != 0 {
			t.Errorf("tenant %s leaked %d inflight slots", snap.ID, snap.Inflight)
		}
		if snap.Admitted != snap.Finished {
			t.Errorf("tenant %s admitted %d != finished %d", snap.ID, snap.Admitted, snap.Finished)
		}
		if snap.AvgJobSec <= 0 {
			t.Errorf("tenant %s has no residence EWMA; Retry-After hints would stay at the floor", snap.ID)
		}
	}
	if rejected == 0 {
		t.Error("soak never hit a tenant quota; MaxInflight=2 should have rejected under 8-deep submission")
	}
	if srv.Tenants().Active() != 0 {
		t.Errorf("tenants still active after drain: %d", srv.Tenants().Active())
	}
}
