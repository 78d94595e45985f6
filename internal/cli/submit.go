package cli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"sparseadapt/internal/flagcheck"
	"sparseadapt/internal/sched"
	"sparseadapt/internal/server/client"
)

// cmdSubmit is the client side of the simulation service: it submits one
// job to a running sparseadaptd, streams the job's event feed (state
// transitions and per-epoch progress) and prints the final result — the
// network-transparent counterpart of `sparseadapt run`.
func cmdSubmit(ctx context.Context, w io.Writer, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	serverURL := fs.String("server", "http://127.0.0.1:8080", "sparseadaptd base URL")
	mode := fs.String("mode", "", "run mode: static|adaptive|resilient|batch (default adaptive)")
	kernel := fs.String("kernel", "", "workload: spmspm|spmspv|bfs|sssp (default spmspv)")
	matID := fs.String("matrix", "", "dataset matrix ID (default R04; see `sparseadapt datasets`)")
	mmFile := fs.String("matrix-file", "", "MatrixMarket file to upload instead of -matrix")
	scaleName := fs.String("scale", "", "simulation scale: test|small|paper (default test)")
	seed := fs.Int64("seed", 0, "seed override (0 = scale default)")
	opt := fs.String("opt", "", "optimization mode: ee|pp (default ee)")
	policy := fs.String("policy", "", "policy override: conservative|aggressive|hybrid")
	tolerance := fs.Float64("tolerance", 0, "hybrid tolerance override")
	cfgName := fs.String("config", "", "static/start configuration: baseline|best-avg|max")
	faults := fs.String("faults", "", "fault-injection spec for resilient jobs")
	count := fs.Int("count", 0, "offload copies for batch jobs")
	counters := fs.Bool("counters", false, "include telemetry counters in epoch events")
	timeout := fs.Duration("timeout", 0, "job execution deadline (0 = server default)")
	follow := fs.Bool("follow", true, "stream job events until completion")
	jsonOut := fs.Bool("json", false, "print the terminal status as JSON")
	retries := fs.Int("retries", 3, "retry transiently rejected submissions (429/503) this many times (0 = fail fast)")
	retryWait := fs.Duration("retry-wait", 500*time.Millisecond, "base backoff between submission retries (server Retry-After overrides)")
	stall := fs.Duration("stream-stall", time.Minute, "abort the event stream when no bytes (not even keepalives) arrive for this long, then poll (0 = no watchdog)")
	requestID := fs.String("request-id", "", "X-Request-ID to stamp on the submission (default: server-generated)")
	tenantID := fs.String("tenant", "", "tenant name for per-tenant quotas and accounting (empty = untenanted)")
	priority := fs.String("priority", "", "tenant priority class: interactive|batch|scavenger (default batch; requires -tenant)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var check flagcheck.Check
	check.NonNegative("retries", *retries)
	check.PositiveDuration("retry-wait", *retryWait)
	check.NonNegativeDuration("stream-stall", *stall)
	check.NonNegative("count", *count)
	check.NonNegativeDuration("timeout", *timeout)
	if err := checkErr(&check); err != nil {
		return err
	}
	req := sched.JobRequest{
		Mode: *mode, Kernel: *kernel, Matrix: *matID,
		Scale: *scaleName, Seed: *seed, OptMode: *opt,
		Policy: *policy, Tolerance: *tolerance, Config: *cfgName,
		Faults: *faults, Count: *count, Counters: *counters,
		TimeoutSec: timeout.Seconds(),
		Tenant:     *tenantID, Priority: *priority,
	}
	if *mmFile != "" {
		body, err := os.ReadFile(*mmFile)
		if err != nil {
			return err
		}
		req.MatrixMarket = string(body)
	}
	// Validate locally first: a malformed request fails here with the same
	// message the server would send, without a round trip.
	if err := req.Validate(); err != nil {
		return err
	}

	c := client.New(*serverURL)
	c.Retry = client.RetryPolicy{Max: *retries, BaseWait: *retryWait}
	c.StallTimeout = *stall
	st, err := c.SubmitWithRequestID(ctx, req, *requestID)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "job %s %s (%s %s on %s, scale %s)\n",
		st.ID, st.State, st.Request.Mode, st.Request.Kernel, matrixLabel(st), st.Request.Scale)
	if !*follow {
		return nil
	}

	var final *sched.JobStatus
	err = c.Stream(ctx, st.ID, func(ev sched.Event) error {
		switch ev.Type {
		case "state":
			if ev.State != sched.StateQueued { // submit already printed queued
				fmt.Fprintf(w, "  %s\n", ev.State)
			}
		case "epoch":
			if ev.Epoch != nil {
				mark := ""
				if ev.Epoch.Reconfigured {
					mark = " *reconfig"
				}
				fmt.Fprintf(w, "  epoch %3d  %-22s %8.3fms %8.3fmJ%s\n",
					ev.Epoch.Epoch, ev.Epoch.Config, ev.Epoch.DurSec*1e3, ev.Epoch.EnergyJ*1e3, mark)
			}
		case "result", "error":
			final = ev.Status
		}
		return nil
	})
	if err != nil && !errors.Is(err, client.ErrStreamStalled) {
		return err
	}
	// A stalled stream degrades to a status poll: the job is still running
	// server-side, only the event pipe died.
	if final == nil {
		if st, gerr := c.Get(ctx, st.ID); gerr == nil {
			final = &st
		} else {
			return gerr
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(final)
	}
	return printFinal(w, *final)
}

// matrixLabel names a job's input: its dataset entry, or an upload by
// the size the status echoes in place of the body.
func matrixLabel(st sched.JobStatus) string {
	if st.UploadBytes > 0 {
		return fmt.Sprintf("uploaded matrix of %d bytes", st.UploadBytes)
	}
	return st.Request.Matrix
}

func printFinal(w io.Writer, st sched.JobStatus) error {
	switch st.State {
	case sched.StateDone:
		r := st.Result
		cached := ""
		if st.CacheHit {
			cached = " (cached)"
		}
		fmt.Fprintf(w, "done in %s%s: %d epochs, %d reconfigs\n",
			st.FinishedAt.Sub(st.StartedAt).Round(time.Millisecond), cached, r.Epochs, r.Reconfigs)
		m := r.Host.Total
		fmt.Fprintf(w, "  total    %10.3fms %10.3fmJ %12.4f GFLOPS %10.4f GFLOPS/W\n",
			m.TimeSec*1e3, m.EnergyJ*1e3, m.GFLOPS(), m.GFLOPSPerW())
		d := r.Host.Device
		fmt.Fprintf(w, "  device   %10.3fms %10.3fmJ\n", d.TimeSec*1e3, d.EnergyJ*1e3)
		if r.Resilience != "" {
			fmt.Fprintf(w, "  resilience: %s\n", r.Resilience)
		}
		for i, b := range r.Batch {
			fmt.Fprintf(w, "  batch[%d] %10.3fms %10.3fmJ\n", i, b.Total.TimeSec*1e3, b.Total.EnergyJ*1e3)
		}
		return nil
	default:
		return fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
}
