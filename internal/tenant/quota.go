package tenant

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"sparseadapt/internal/obs"
)

// Admission errors. The server maps both to 429; Retry-After comes from the
// tenant's own accounting, never the global queue hint (a tenant at its
// quota says nothing about the queue, and vice versa).
var (
	// ErrQuota means the tenant is at its inflight-job quota.
	ErrQuota = errors.New("tenant inflight quota exceeded")
	// ErrRate means the tenant's token bucket is empty.
	ErrRate = errors.New("tenant rate limit exceeded")
)

// Quota bounds one tenant's use of the admission queue. Zero fields mean
// unlimited on that axis.
type Quota struct {
	// MaxInflight caps a tenant's jobs that are queued or running at once.
	MaxInflight int
	// RatePerSec and Burst are the tenant's submission token bucket.
	RatePerSec float64
	Burst      float64
}

// Enabled reports whether the quota restricts anything.
func (q Quota) Enabled() bool { return q.MaxInflight > 0 || q.RatePerSec > 0 }

// Bucket is a submission token bucket: it starts full and refills
// continuously at the rate Take is given, capped at the burst. The tenant
// tracker keeps one per tenant and the server one per client address.
type Bucket struct {
	tokens float64
	last   time.Time // zero until the first Take
}

// Take refills the bucket to now and takes one token. When less than one
// token is left it takes none and reports how long until one accrues, the
// Retry-After hint.
func (b *Bucket) Take(rate, burst float64, now time.Time) (bool, time.Duration) {
	if b.last.IsZero() {
		b.tokens = burst
	} else {
		b.tokens = math.Min(burst, b.tokens+now.Sub(b.last).Seconds()*rate)
	}
	b.last = now
	if b.tokens < 1 {
		return false, time.Duration((1 - b.tokens) / rate * float64(time.Second))
	}
	b.tokens--
	return true, 0
}

// Idle returns how long the bucket has gone untouched at now.
func (b *Bucket) Idle(now time.Time) time.Duration { return now.Sub(b.last) }

// TenantSnapshot is one tenant's admission state as /v1/tenants reports it.
type TenantSnapshot struct {
	ID            string  `json:"id"`
	Class         string  `json:"class"`
	Inflight      int     `json:"inflight"`
	Admitted      int64   `json:"admitted"`
	Finished      int64   `json:"finished"`
	RejectedQuota int64   `json:"rejected_quota,omitempty"`
	RejectedRate  int64   `json:"rejected_rate,omitempty"`
	AvgJobSec     float64 `json:"avg_job_sec,omitempty"`
}

// tenantState is one tenant's live admission accounting.
type tenantState struct {
	class    Class
	inflight int
	bucket   Bucket

	admitted      int64
	finished      int64
	rejectedQuota int64
	rejectedRate  int64
	// ewmaSec tracks job residence time (accept → terminal), the basis of
	// the tenant's honest Retry-After hint.
	ewmaSec float64
}

// Tracker is the admission-side half of multi-tenancy: per-tenant inflight
// quotas and submission token buckets layered on top of the scheduler's
// global queue. Admit runs before the scheduler reserves a global slot, so
// a tenant-level rejection never consumes global admission capacity. All
// methods are safe for concurrent use; a nil *Tracker admits everything.
type Tracker struct {
	mu      sync.Mutex
	quota   Quota
	reg     *obs.Registry
	tenants map[string]*tenantState
	jobs    map[string]string // job ID → tenant, for idempotent release
}

// NewTracker builds a tracker enforcing q for every tenant. reg (optional)
// receives the tenant_* admission metrics.
func NewTracker(q Quota, reg *obs.Registry) *Tracker {
	return &Tracker{quota: q, reg: reg, tenants: make(map[string]*tenantState), jobs: make(map[string]string)}
}

func (t *Tracker) state(id string) *tenantState {
	s := t.tenants[id]
	if s == nil {
		s = &tenantState{class: Batch}
		t.tenants[id] = s
	}
	return s
}

// Admit reserves an inflight slot for one job of the tenant, or rejects
// with ErrQuota/ErrRate and the tenant's own Retry-After hint. A granted
// slot must be balanced by Bind+Release (job accepted) or Cancel (the
// submission failed downstream of admission). A nil tracker admits.
func (t *Tracker) Admit(tenantID string, class Class, now time.Time) (time.Duration, error) {
	if t == nil || tenantID == "" {
		return 0, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.state(tenantID)
	s.class = class

	if r := t.quota.RatePerSec; r > 0 {
		if ok, wait := s.bucket.Take(r, t.quota.Burst, now); !ok {
			s.rejectedRate++
			t.count("tenant_rejected_rate_total", "submissions rejected by a tenant token bucket")
			return wait, ErrRate
		}
	}
	if max := t.quota.MaxInflight; max > 0 && s.inflight >= max {
		s.rejectedQuota++
		t.count("tenant_rejected_quota_total", "submissions rejected by a tenant inflight quota")
		return s.retryHint(), ErrQuota
	}
	s.inflight++
	s.admitted++
	t.count("tenant_admitted_total", "submissions admitted through tenant quotas")
	t.gaugeInflightLocked()
	return 0, nil
}

// Bind associates an accepted job with the tenant whose slot it holds, so
// terminal hooks can Release it by job ID alone.
func (t *Tracker) Bind(jobID, tenantID string) {
	if t == nil || tenantID == "" || jobID == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jobs[jobID] = tenantID
}

// Cancel returns an admitted-but-never-bound slot (the submission failed
// between Admit and scheduler commit).
func (t *Tracker) Cancel(tenantID string) {
	if t == nil || tenantID == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.tenants[tenantID]; s != nil && s.inflight > 0 {
		s.inflight--
		s.admitted--
		t.gaugeInflightLocked()
	}
}

// Release frees the slot held by a terminal job and feeds its residence
// time into the tenant's Retry-After EWMA. Idempotent: releasing an
// unknown or already-released job is a no-op, so every terminal path
// (finished, canceled while queued, evicted) may call it safely.
func (t *Tracker) Release(jobID string, residence time.Duration) {
	if t == nil || jobID == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tenantID, ok := t.jobs[jobID]
	if !ok {
		return
	}
	delete(t.jobs, jobID)
	s := t.tenants[tenantID]
	if s == nil {
		return
	}
	if s.inflight > 0 {
		s.inflight--
	}
	s.finished++
	if sec := residence.Seconds(); sec > 0 {
		if s.ewmaSec == 0 {
			s.ewmaSec = sec
		} else {
			s.ewmaSec = 0.8*s.ewmaSec + 0.2*sec
		}
	}
	t.gaugeInflightLocked()
}

// RetryHint returns the tenant's own Retry-After estimate: the EWMA of its
// job residence times, clamped to [1s, 60s] — how long until an inflight
// slot plausibly frees.
func (t *Tracker) RetryHint(tenantID string) time.Duration {
	if t == nil {
		return time.Second
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.tenants[tenantID]; s != nil {
		return s.retryHint()
	}
	return time.Second
}

// retryHint is the per-tenant hint for callers already holding the lock.
func (s *tenantState) retryHint() time.Duration { return clampHint(s.ewmaSec) }

func clampHint(ewmaSec float64) time.Duration {
	d := time.Duration(ewmaSec * float64(time.Second))
	if d < time.Second {
		return time.Second
	}
	if d > time.Minute {
		return time.Minute
	}
	return d
}

// Snapshot returns every tenant's admission state, sorted by ID.
func (t *Tracker) Snapshot() []TenantSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TenantSnapshot, 0, len(t.tenants))
	for id, s := range t.tenants {
		out = append(out, TenantSnapshot{
			ID: id, Class: s.class.String(),
			Inflight: s.inflight, Admitted: s.admitted, Finished: s.finished,
			RejectedQuota: s.rejectedQuota, RejectedRate: s.rejectedRate,
			AvgJobSec: s.ewmaSec,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Active returns how many tenants currently hold inflight jobs.
func (t *Tracker) Active() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.tenants {
		if s.inflight > 0 {
			n++
		}
	}
	return n
}

func (t *Tracker) count(name, help string) {
	if t.reg != nil {
		t.reg.Counter(name, help).Inc()
	}
}

func (t *Tracker) gaugeInflightLocked() {
	if t.reg == nil {
		return
	}
	n := 0
	for _, s := range t.tenants {
		n += s.inflight
	}
	t.reg.Gauge("tenant_inflight_jobs", "jobs currently holding tenant inflight slots").Set(float64(n))
	active := 0
	for _, s := range t.tenants {
		if s.inflight > 0 {
			active++
		}
	}
	t.reg.Gauge("tenant_active", "tenants with at least one inflight job").Set(float64(active))
}

// String renders the quota for the daemon's startup log.
func (q Quota) String() string {
	if !q.Enabled() {
		return "tenant quotas off"
	}
	return fmt.Sprintf("tenant quota: max-inflight=%d rate=%.3g/s burst=%.3g", q.MaxInflight, q.RatePerSec, q.Burst)
}
