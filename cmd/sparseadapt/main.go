// Command sparseadapt is the main CLI of the reproduction: it lists and
// runs the paper's experiments, generates training datasets and trains and
// saves predictive models, runs individual workloads under SparseAdapt
// control, records a workload's upper bounds, submits jobs to a
// sparseadaptd server, and prints the dataset inventory. See internal/cli
// for the implementation.
package main

import (
	"context"
	"os"

	"sparseadapt/internal/cli"
	"sparseadapt/internal/sigctx"
)

func main() {
	// SIGINT/SIGTERM cancel the run context: simulations stop at the next
	// epoch or task boundary and the CLI flushes any -metrics/-trace/
	// -manifest sinks before exiting. A second signal force-exits.
	ctx, stop := sigctx.WithSignals(context.Background(), os.Stderr)
	defer stop()
	os.Exit(cli.MainContext(ctx, os.Args[1:], os.Stdout))
}
