package cli

import (
	"flag"
	"fmt"
	"io"

	"sparseadapt/internal/core"
	"sparseadapt/internal/obs"
)

// obsFlags bundles the observability CLI surface shared by the simulation
// subcommands: -metrics exports the run's metric registry, -trace the
// epoch/task trace (Perfetto-loadable), -pprof serves net/http/pprof for
// the duration of the run, -manifest records a reproducibility manifest.
// All four default to off, and the sinks they feed are only allocated when
// requested, so an unobserved run pays nothing but nil checks.
type obsFlags struct {
	metricsPath  *string
	tracePath    *string
	pprofAddr    *string
	manifestPath *string

	reg      *obs.Registry
	trace    *obs.TraceRecorder
	manifest *obs.Manifest
	pprof    *obs.PprofServer
	finished bool
}

// addObsFlags registers -metrics/-trace/-pprof/-manifest on fs.
func addObsFlags(fs *flag.FlagSet) *obsFlags {
	return &obsFlags{
		metricsPath:  fs.String("metrics", "", "write run metrics to this file (.json = JSON snapshot, else Prometheus text)"),
		tracePath:    fs.String("trace", "", "write the run trace to this file (.jsonl = JSONL, else Chrome trace_event JSON for Perfetto)"),
		pprofAddr:    fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while the command runs"),
		manifestPath: fs.String("manifest", "", "write a reproducibility manifest (JSON) for this run"),
	}
}

// start activates the requested sinks. Call it after flag parsing and
// before the run; tool and args name the invocation for the manifest, and
// fs contributes every explicitly set flag value as a manifest annotation.
func (of *obsFlags) start(tool string, fs *flag.FlagSet, args []string, w io.Writer) error {
	if *of.metricsPath != "" {
		of.reg = obs.NewRegistry()
	}
	if *of.tracePath != "" {
		of.trace = obs.NewTraceRecorder()
	}
	if *of.manifestPath != "" {
		of.manifest = obs.NewManifest(tool, args)
		fs.Visit(func(f *flag.Flag) { of.manifest.Set("flag."+f.Name, f.Value.String()) })
	}
	if *of.pprofAddr != "" {
		srv, err := obs.ServePprof(*of.pprofAddr)
		if err != nil {
			return err
		}
		of.pprof = srv
		fmt.Fprintf(w, "pprof: serving on http://%s/debug/pprof/\n", srv.Addr())
	}
	return nil
}

// annotate stamps the run's determinism inputs into the manifest (no-op
// when -manifest is off).
func (of *obsFlags) annotate(seed int64, scale string) {
	if of.manifest == nil {
		return
	}
	of.manifest.Seed = seed
	of.manifest.Scale = scale
}

// observer builds the controller-side observer over the configured sinks,
// or nil when neither -metrics nor -trace is set (observability fully off).
// counters embeds the Table 2 telemetry vector in every epoch record.
func (of *obsFlags) observer(counters bool) *core.Observer {
	if of.reg == nil && of.trace == nil {
		return nil
	}
	o := core.NewObserver(of.reg, of.trace)
	o.TraceCounters = counters
	return o
}

// finish closes the pprof server and writes every configured output file.
// It is idempotent: the subcommands call it on their success path AND from
// a defer, so an interrupted run (SIGINT/SIGTERM canceling the context)
// still flushes whatever metrics and trace data it gathered before exit.
func (of *obsFlags) finish(w io.Writer) error {
	if of.finished {
		return nil
	}
	of.finished = true
	of.pprof.Close()
	if of.reg != nil {
		if err := of.reg.WriteFile(*of.metricsPath); err != nil {
			return err
		}
		fmt.Fprintln(w, "wrote", *of.metricsPath)
	}
	if of.trace != nil {
		if err := of.trace.WriteFile(*of.tracePath); err != nil {
			return err
		}
		fmt.Fprintln(w, "wrote", *of.tracePath)
	}
	if of.manifest != nil {
		if err := of.manifest.WriteFile(*of.manifestPath); err != nil {
			return err
		}
		fmt.Fprintln(w, "wrote", *of.manifestPath)
	}
	return nil
}
