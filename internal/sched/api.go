package sched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"sparseadapt/internal/engine"
	"sparseadapt/internal/host"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/obs"
)

// The run modes a job can request, mapping one-to-one onto the host
// runner's entry points.
const (
	ModeStatic    = "static"    // fixed configuration (host.Runner.RunStaticFull)
	ModeAdaptive  = "adaptive"  // SparseAdapt control (host.Runner.RunAdaptiveFull)
	ModeResilient = "resilient" // fault-tolerant control (host.Runner.RunResilient)
	ModeBatch     = "batch"     // N offloads through the engine pool (host.Runner.RunBatchAdaptive)
)

// Job lifecycle states, as reported by JobStatus.State. Quarantined is the
// poison-job terminal state: the job failed MaxAttempts consecutive
// execution attempts and the scheduler refuses to burn more capacity on it.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateCanceled    = "canceled"
	StateQuarantined = "quarantined"
)

// JobRequest is the POST /v1/jobs body: one simulation job parameterized
// the same way the CLI `run` subcommand is. Exactly one of Matrix (a
// dataset entry ID) or MatrixMarket (an inline MatrixMarket coordinate
// body) selects the input; everything else has CLI-compatible defaults.
type JobRequest struct {
	// Mode selects the run mode: static|adaptive|resilient|batch
	// (default adaptive).
	Mode string `json:"mode,omitempty"`
	// Kernel is the workload: spmspm|spmspv|bfs|sssp (default spmspv).
	Kernel string `json:"kernel,omitempty"`
	// Matrix is a dataset entry ID (see GET /v1/datasets), generated at the
	// job scale's matrix size.
	Matrix string `json:"matrix,omitempty"`
	// MatrixMarket is an inline MatrixMarket coordinate body, used verbatim
	// instead of a generated dataset entry. Subject to the server's upload
	// size limit.
	MatrixMarket string `json:"matrix_market,omitempty"`
	// Scale is the simulation scale: test|small|paper (default test).
	Scale string `json:"scale,omitempty"`
	// Seed overrides the scale's deterministic seed when non-zero.
	Seed int64 `json:"seed,omitempty"`
	// OptMode is the optimization objective: ee|pp (default ee).
	OptMode string `json:"opt_mode,omitempty"`
	// Policy overrides the controller policy:
	// conservative|aggressive|hybrid (default: kernel-appropriate).
	Policy string `json:"policy,omitempty"`
	// Tolerance is the hybrid policy threshold (default 0.4).
	Tolerance float64 `json:"tolerance,omitempty"`
	// Config names the fixed configuration of static jobs:
	// baseline|best-avg|max (default baseline).
	Config string `json:"config,omitempty"`
	// Faults is a fault-injection spec for resilient jobs
	// (e.g. "nan=0.1,stuck=0.05,seed=7"); empty runs the resilient
	// controller clean.
	Faults string `json:"faults,omitempty"`
	// Count is the number of offload copies a batch job serves through the
	// engine pool (default 4, batch mode only).
	Count int `json:"count,omitempty"`
	// Counters includes the full Table 2 telemetry vector in every epoch
	// event of the SSE stream.
	Counters bool `json:"counters,omitempty"`
	// TimeoutSec caps the job's execution time; 0 uses the server default,
	// and values above the server default are clamped to it.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// Tenant names the tenant submitting the job, for per-tenant admission
	// quotas and accounting. Clients may set it here or via the X-Tenant-ID
	// header (the header fills this field server-side, so it survives
	// coordinator→worker forwarding). Empty means untenanted.
	Tenant string `json:"tenant,omitempty"`
	// Priority is the tenant priority class:
	// interactive|batch|scavenger (default batch).
	Priority string `json:"priority,omitempty"`
}

// Validate normalizes defaults in place and rejects malformed requests.
// It is deliberately strict: a job that would fail at execution time for a
// reason knowable at submission time must be rejected with a 400 at the
// door, not occupy a queue slot first.
func (r *JobRequest) Validate() error {
	_, err := r.validate()
	return err
}

// validate is Validate returning the parse of a matrix_market upload, nil
// for a request on a dataset entry.
func (r *JobRequest) validate() (upload *matrix.COO, err error) {
	if r.Mode == "" {
		r.Mode = ModeAdaptive
	}
	switch r.Mode {
	case ModeStatic, ModeAdaptive, ModeResilient, ModeBatch:
	default:
		return nil, fmt.Errorf("unknown mode %q (static|adaptive|resilient|batch)", r.Mode)
	}
	if r.Kernel == "" {
		r.Kernel = "spmspv"
	}
	switch r.Kernel {
	case "spmspm", "spmspv", "bfs", "sssp":
	default:
		return nil, fmt.Errorf("unknown kernel %q (spmspm|spmspv|bfs|sssp)", r.Kernel)
	}
	if r.Matrix != "" && r.MatrixMarket != "" {
		return nil, fmt.Errorf("matrix and matrix_market are mutually exclusive")
	}
	if r.Matrix == "" && r.MatrixMarket == "" {
		r.Matrix = "R04"
	}
	if r.Matrix != "" {
		if _, err := matrix.Entry(r.Matrix); err != nil {
			return nil, fmt.Errorf("unknown dataset entry %q", r.Matrix)
		}
	}
	if r.MatrixMarket != "" {
		// The parse the job runs: a malformed body, or one declaring
		// dimensions above matrix.MaxDim, fails here instead of in the job.
		if upload, err = matrix.ParseMatrixMarket(r.MatrixMarket); err != nil {
			return nil, fmt.Errorf("matrix_market: %w", err)
		}
	}
	if r.Scale == "" {
		r.Scale = "test"
	}
	switch r.Scale {
	case "test", "small", "paper":
	default:
		return nil, fmt.Errorf("unknown scale %q (test|small|paper)", r.Scale)
	}
	if r.OptMode == "" {
		r.OptMode = "ee"
	}
	switch r.OptMode {
	case "ee", "pp":
	default:
		return nil, fmt.Errorf("unknown opt_mode %q (ee|pp)", r.OptMode)
	}
	switch r.Policy {
	case "", "conservative", "aggressive", "hybrid":
	default:
		return nil, fmt.Errorf("unknown policy %q (conservative|aggressive|hybrid)", r.Policy)
	}
	if r.Tolerance < 0 || r.Tolerance > 10 {
		return nil, fmt.Errorf("tolerance %g out of range [0, 10]", r.Tolerance)
	}
	if r.Config == "" {
		r.Config = "baseline"
	}
	switch r.Config {
	case "baseline", "best-avg", "max":
	default:
		return nil, fmt.Errorf("unknown config %q (baseline|best-avg|max)", r.Config)
	}
	if r.Faults != "" && r.Mode != ModeResilient {
		return nil, fmt.Errorf("faults requires mode resilient")
	}
	if r.Count < 0 || r.Count > 1024 {
		return nil, fmt.Errorf("count %d out of range [0, 1024]", r.Count)
	}
	if r.Count == 0 && r.Mode == ModeBatch {
		r.Count = 4
	}
	if r.Count != 0 && r.Mode != ModeBatch {
		return nil, fmt.Errorf("count requires mode batch")
	}
	if r.TimeoutSec < 0 {
		return nil, fmt.Errorf("timeout_sec must be >= 0")
	}
	if err := r.ValidateTenant(); err != nil {
		return nil, err
	}
	return upload, nil
}

// ValidateTenant checks the tenant name and priority class, and defaults
// a tenanted request's priority; Validate ends with it. A transport that
// fills Tenant after decoding (the X-Tenant-ID header) calls it instead
// of Validate, which would parse an upload again.
func (r *JobRequest) ValidateTenant() error {
	if len(r.Tenant) > 64 {
		return fmt.Errorf("tenant name longer than 64 bytes")
	}
	for i := 0; i < len(r.Tenant); i++ {
		if c := r.Tenant[i]; c < 0x21 || c > 0x7e {
			return fmt.Errorf("tenant name contains non-printable or space byte %#x", c)
		}
	}
	switch r.Priority {
	case "":
		if r.Tenant != "" {
			r.Priority = "batch"
		}
	case "interactive", "batch", "scavenger":
	default:
		return fmt.Errorf("unknown priority %q (interactive|batch|scavenger)", r.Priority)
	}
	if r.Priority != "" && r.Tenant == "" {
		return fmt.Errorf("priority requires a tenant")
	}
	return nil
}

// Fingerprint content-addresses the request: every field that determines
// the result participates; TimeoutSec deliberately does not (a timed-out
// job errors and is never cached), and neither do Tenant or Priority —
// who submitted a job and how urgently cannot change its result, and
// excluding them lets tenants share cache entries for identical work
// (results carry no tenant data). The same key addresses the result in
// the engine cache on every node and places the job on the consistent-hash
// ring, which is what routes repeat submissions to the worker already
// holding their cache entry.
func (r JobRequest) Fingerprint() engine.Key {
	counters := 0
	if r.Counters {
		counters = 1
	}
	return engine.NewHasher("server-job/v1").
		Str(r.Mode).Str(r.Kernel).Str(r.Matrix).Str(r.MatrixMarket).
		Str(r.Scale).I64(r.Seed).Str(r.OptMode).Str(r.Policy).
		F64(r.Tolerance).Str(r.Config).Str(r.Faults).
		Int(r.Count, counters).Sum()
}

// DecodeJobRequest parses and validates a JSON job request body, and
// returns the parse of its matrix_market upload (nil for a request on a
// dataset entry) for the job to run on instead of parsing the string
// again. Unknown fields are rejected so client typos fail loudly instead
// of silently running a default job. This is the fuzzed decoding surface
// of the server (FuzzDecodeJobRequest).
func DecodeJobRequest(data []byte) (JobRequest, *matrix.COO, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		return JobRequest{}, nil, fmt.Errorf("invalid job JSON: %w", err)
	}
	if dec.More() {
		return JobRequest{}, nil, fmt.Errorf("invalid job JSON: trailing data after object")
	}
	upload, err := req.validate()
	if err != nil {
		return JobRequest{}, nil, err
	}
	return req, upload, nil
}

// JobResult is a finished job's payload. Host carries the offload
// economics — for an adaptive job it is byte-identical to what the
// equivalent in-process host.Runner.RunAdaptiveFull call returns. The per-epoch trace
// is delivered over the job's SSE stream (and kept server-side for cache
// replay) rather than inlined here, so status polls stay small.
type JobResult struct {
	// Host is the end-to-end offload outcome (device + link transfers).
	Host host.Result `json:"host"`
	// Epochs and Reconfigs summarize the device-side run.
	Epochs    int `json:"epochs"`
	Reconfigs int `json:"reconfigs"`
	// Resilience is the resilient controller's report string (resilient
	// jobs only).
	Resilience string `json:"resilience,omitempty"`
	// Batch holds the per-offload results of a batch job, in request order.
	Batch []host.Result `json:"batch,omitempty"`
	// Trace is the per-epoch record stream, excluded from status JSON (the
	// SSE endpoint delivers it) but retained for cached-result replay.
	Trace []obs.EpochRecord `json:"-"`
}

// JobStatus is the GET /v1/jobs/{id} body and the submit response.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Request echoes the validated request without its MatrixMarket
	// upload; UploadBytes and UploadSHA256 stand in for the body.
	Request JobRequest `json:"request"`
	// UploadBytes is the size of the request's matrix_market upload, 0
	// for a job on a dataset entry.
	UploadBytes int `json:"upload_bytes,omitempty"`
	// UploadSHA256 is the hex SHA-256 of the matrix_market upload.
	UploadSHA256 string    `json:"upload_sha256,omitempty"`
	CreatedAt    time.Time `json:"created_at"`
	// StartedAt and FinishedAt are the zero time until the job starts and
	// reaches a terminal state (done, failed, canceled), respectively.
	StartedAt  time.Time `json:"started_at"`
	FinishedAt time.Time `json:"finished_at"`
	// RequestID is the submission's trace identifier (X-Request-ID):
	// client-supplied or generated at acceptance, stable across retries and
	// coordinator→worker forwarding.
	RequestID string `json:"request_id,omitempty"`
	// Error is the failure reason of a failed, canceled or quarantined job.
	Error string `json:"error,omitempty"`
	// Result is present once the job is done.
	Result *JobResult `json:"result,omitempty"`
	// CacheHit marks a result served from the content-addressed cache.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Attempts counts execution attempts so far (0 while queued). A value
	// above 1 means the job was retried after transient failures.
	Attempts int `json:"attempts,omitempty"`
	// Recovered marks a job restored from the durable journal after a
	// daemon restart.
	Recovered bool `json:"recovered,omitempty"`
}

// Terminal reports whether the status is final.
func (s JobStatus) Terminal() bool {
	switch s.State {
	case StateDone, StateFailed, StateCanceled, StateQuarantined:
		return true
	}
	return false
}

// Event is one entry of a job's SSE stream (/v1/jobs/{id}/events). Type
// selects which payload field is set: "state" events mark lifecycle
// transitions, "epoch" events carry per-epoch progress, "retry" events
// mark a failed attempt that will be re-executed (after a retry the epoch
// stream restarts from epoch 0 — consumers should key on Epoch.Epoch, not
// event count), and the final "result" or "error" event carries the
// terminal JobStatus.
type Event struct {
	// Seq is the event's position in the job's stream, used as the SSE id
	// so clients can resume.
	Seq int `json:"seq"`
	// Type is state|epoch|retry|result|error.
	Type string `json:"type"`
	// RequestID stamps every event with the job's trace identifier, so one
	// grep follows a submission coordinator→worker across log and stream.
	RequestID string `json:"request_id,omitempty"`
	// State is the new lifecycle state of a "state" event.
	State string `json:"state,omitempty"`
	// Epoch is the payload of an "epoch" event.
	Epoch *obs.EpochRecord `json:"epoch,omitempty"`
	// Status is the terminal status of a "result" or "error" event.
	Status *JobStatus `json:"status,omitempty"`
	// Attempt and Error describe the failed attempt of a "retry" event.
	Attempt int    `json:"attempt,omitempty"`
	Error   string `json:"error,omitempty"`
}
