package cli

import (
	"flag"
	"fmt"
	"io"

	"sparseadapt/internal/engine"
	"sparseadapt/internal/flagcheck"
)

// engineMemEntries bounds the in-memory cache tier for CLI-constructed
// engines; one entry is one oracle row or trainer sweep point, so this is
// generous for every built-in scale.
const engineMemEntries = 4096

// engineFlags bundles the execution-engine CLI surface shared by the
// simulation-heavy subcommands: -workers bounds parallelism, -cache adds a
// persistent on-disk result cache, -progress reports liveness and the
// end-of-run engine summary.
type engineFlags struct {
	workers  *int
	cacheDir *string
	progress *bool
}

// addEngineFlags registers -workers/-cache/-progress on fs.
func addEngineFlags(fs *flag.FlagSet) *engineFlags {
	return &engineFlags{
		workers:  fs.Int("workers", 0, "parallel simulation workers (0 = all CPUs, 1 = serial)"),
		cacheDir: fs.String("cache", "", "directory for the on-disk simulation result cache (empty = in-memory only)"),
		progress: fs.Bool("progress", false, "print engine progress lines and the end-of-run summary"),
	}
}

// check adds the engine flags' range violations to the subcommand's check.
func (ef *engineFlags) check(c *flagcheck.Check) {
	c.NonNegative("workers", *ef.workers)
}

// build constructs the engine. Progress lines go to w (the command's
// output stream) so they are testable in-process like everything else.
// When of carries active observability sinks (non-nil of with -metrics or
// -trace set), the engine's engine_* metric family and per-task spans feed
// them.
func (ef *engineFlags) build(w io.Writer, of *obsFlags) (*engine.Engine, error) {
	cache, err := engine.NewCache(engineMemEntries, *ef.cacheDir)
	if err != nil {
		return nil, err
	}
	opts := engine.Options{Workers: *ef.workers, Cache: cache}
	if *ef.progress {
		opts.Progress = w
	}
	if of != nil {
		opts.Metrics = of.reg
		opts.Trace = of.trace
	}
	return engine.New(opts), nil
}

// report prints the engine summary when -progress is set.
func (ef *engineFlags) report(w io.Writer, eng *engine.Engine) {
	if eng != nil && *ef.progress {
		fmt.Fprint(w, eng.Stats.Report())
	}
}
