package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"sparseadapt/internal/config"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

// Checkpoint is the controller's crash-recovery state, written every
// CheckpointEvery epochs. The machine's microarchitectural state is not
// serialized: the simulator is deterministic, so Resume rebuilds it by
// replaying the recorded configuration schedule (no model inference)
// against the same workload, then continues the control loop from Epoch
// with identical state — the epoch log tail matches an uninterrupted run
// exactly. The replay runs through Drive like any other epoch: the first
// Epoch boundaries of a resumed run take the recorded decisions.
type Checkpoint struct {
	Version int `json:"version"`
	// Epoch is the number of completed epochs; Resume continues at index
	// Epoch.
	Epoch int `json:"epoch"`
	// Start is the configuration the run began in; a Resume against a
	// machine constructed differently is rejected.
	Start config.Config `json:"start"`
	// Next is the machine configuration entering epoch Epoch (after the
	// boundary decision that preceded this checkpoint), and Reconfigured
	// whether that boundary changed it.
	Next         config.Config `json:"next"`
	Reconfigured bool          `json:"reconfigured"`
	InFallback   bool          `json:"in_fallback"`

	Total    power.Metrics    `json:"total"`
	Epochs   []EpochLog       `json:"epochs"`
	Reconfig int              `json:"reconfig"`
	Watchdog watchdogState    `json:"watchdog"`
	Report   ResilienceReport `json:"report"`
}

const checkpointVersion = 1

// writeFileAtomic writes data via a temp file in the destination directory
// and renames it into place, so a crash mid-write never leaves a torn file
// where a valid one is expected.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// writeCheckpoint captures the live run state after `done` completed epochs.
func (c *ResilientController) writeCheckpoint(m *sim.Machine, run *RunResult, done int) error {
	reconfig := run.Reconfig
	if c.reconfigured {
		reconfig++ // Drive counts this boundary's reconfiguration after Step
	}
	ck := Checkpoint{
		Version:      checkpointVersion,
		Epoch:        done,
		Start:        run.Epochs[0].Config,
		Next:         m.Config(),
		Reconfigured: c.reconfigured,
		InFallback:   c.inFallback,
		Total:        run.Total,
		Epochs:       run.Epochs,
		Reconfig:     reconfig,
		Watchdog:     c.wd,
		Report:       c.report,
	}
	data, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	return writeFileAtomic(c.Opts.CheckpointPath, data)
}

// DecodeCheckpoint parses and validates checkpoint bytes. It is the pure
// decoding core of LoadCheckpoint, split out so untrusted bytes can be
// checked without touching the filesystem (the fuzz harness drives it
// directly).
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	ck := &Checkpoint{}
	if err := json.Unmarshal(data, ck); err != nil {
		return nil, fmt.Errorf("core: parsing checkpoint: %w", err)
	}
	if ck.Version != checkpointVersion {
		return nil, fmt.Errorf("core: checkpoint has version %d, want %d", ck.Version, checkpointVersion)
	}
	if ck.Epoch < 1 || len(ck.Epochs) != ck.Epoch {
		return nil, fmt.Errorf("core: checkpoint records %d logs for %d epochs", len(ck.Epochs), ck.Epoch)
	}
	if !ck.Start.Valid() || !ck.Next.Valid() {
		return nil, fmt.Errorf("core: checkpoint holds an invalid configuration")
	}
	return ck, nil
}

// LoadCheckpoint reads and validates a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ck, err := DecodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	return ck, nil
}

// replay re-runs boundary j of a resumed run's checkpointed prefix. The
// epoch ran under its recorded configuration; the recorded boundary
// reconfiguration is re-applied through the same fault-injected protocol
// (same hash keys → same drops and penalties), rebuilding the exact
// microarchitectural and pending-cost state the original run had at the
// checkpoint. Model inference is skipped, nothing is observed, and the
// epoch's log and the prefix's totals are the recorded ones.
func (c resilientRun) replay(m *sim.Machine, b Boundary) (bool, bool, error) {
	ck, j := c.resume, b.Epoch
	if m.Config() != ck.Epochs[j].Config {
		return false, false, fmt.Errorf("core: replay diverged at epoch %d: machine %v, recorded %v", j, m.Config(), ck.Epochs[j].Config)
	}
	if b.Last && j < ck.Epoch-1 {
		return false, false, fmt.Errorf("core: checkpoint at epoch %d exceeds workload's %d epochs", ck.Epoch, j+1)
	}
	*b.Log() = ck.Epochs[j]
	// Telemetry injection must replay too: stuck-at faults reference the
	// previous true frame, so the injector's state advances epoch by epoch
	// exactly as it did originally.
	if c.Inject != nil {
		c.Inject.PerturbTelemetry(j, b.Result.Counters)
	}
	// Re-apply the boundary reconfiguration, if one took.
	next, took := ck.Next, ck.Reconfigured
	if j < ck.Epoch-1 {
		next, took = ck.Epochs[j+1].Config, ck.Epochs[j+1].Reconfigured
	}
	if took {
		c.attemptReconfig(m, j, next)
	}
	if j == ck.Epoch-1 {
		if m.Config() != ck.Next {
			return false, false, fmt.Errorf("core: replay ended at %v, checkpoint recorded %v", m.Config(), ck.Next)
		}
		b.Run.Total = ck.Total
	}
	return took, false, nil
}
