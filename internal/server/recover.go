package server

import (
	"encoding/json"
	"fmt"

	"sparseadapt/internal/sched"
	"sparseadapt/internal/server/store"
)

// journal appends one lifecycle record to the durable store (a no-op
// without one), keeping the journal metrics honest.
func (s *Server) journal(rec store.Record) error {
	if s.store == nil {
		return nil
	}
	if err := s.store.Append(rec); err != nil {
		s.met.journalErrors.Inc()
		return err
	}
	s.met.journalAppends.Inc()
	return nil
}

// journalAccept commits a job's acceptance record — the submission's
// durability point. Unlike every later record it is NOT best-effort: the
// caller must not 202 a job whose acceptance did not reach disk.
func (s *Server) journalAccept(j *sched.Job) error {
	if s.store == nil {
		return nil
	}
	reqJSON, err := json.Marshal(j.Request())
	if err != nil {
		return fmt.Errorf("encoding request: %w", err)
	}
	return s.journal(store.Record{Type: store.RecAccepted, JobID: j.ID(), Request: reqJSON, RequestID: j.RequestID()})
}

// journalTerminal records a job's terminal state. Best-effort by design: a
// failed write leaves the job non-terminal in the journal, and the worst a
// crash can then do is re-execute it — deterministic and mostly
// cache-served, never lost or wrong.
func (s *Server) journalTerminal(st sched.JobStatus) {
	if s.store == nil {
		return
	}
	rec := store.Record{JobID: st.ID, Attempt: st.Attempts, Error: st.Error}
	switch st.State {
	case sched.StateDone:
		rec.Type = store.RecDone
		rec.CacheHit = st.CacheHit
		if st.Result != nil {
			if data, err := json.Marshal(st.Result); err == nil {
				rec.Result = data
			}
		}
	case sched.StateFailed:
		rec.Type = store.RecFailed
	case sched.StateCanceled:
		rec.Type = store.RecCanceled
	case sched.StateQuarantined:
		rec.Type = store.RecQuarantined
	default:
		return
	}
	s.journal(rec) //nolint:errcheck // best-effort, error already counted
}

// recoverFromStore rebuilds the scheduler's job map from the journal fold
// at boot. Terminal jobs are resurfaced as finished records (persisted
// result, sealed event stream); queued and in-flight jobs are re-queued —
// re-executing an interrupted job is safe because execution is
// deterministic per request and the content-addressed cache serves
// completed work without re-simulating. Attempt counts survive the
// restart, so a poison job cannot reset its quarantine budget by crashing
// the daemon.
func (s *Server) recoverFromStore() error {
	for _, js := range s.store.Jobs() {
		var req sched.JobRequest
		if len(js.Request) > 0 {
			if err := json.Unmarshal(js.Request, &req); err != nil {
				return fmt.Errorf("server: recovering %s: bad request payload: %w", js.ID, err)
			}
		}
		j := s.sch.Restore(js.ID, req, js.RequestID, js.Accepted)
		j.SetRecovered(js.Attempts)
		if js.Terminal() {
			var result *sched.JobResult
			if len(js.Result) > 0 {
				var res sched.JobResult
				if err := json.Unmarshal(js.Result, &res); err == nil {
					result = &res
				}
			}
			s.sch.RestoreTerminal(j, js.State, js.Finished, js.LastError, js.CacheHit, result)
		} else {
			s.sch.Requeue(j)
		}
	}
	return nil
}
