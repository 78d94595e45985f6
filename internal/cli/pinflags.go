package cli

import (
	"flag"

	"sparseadapt/internal/config"
	"sparseadapt/internal/flagcheck"
)

// pinFlags is the -dataflow/-format pair that pins the algorithm axes of
// every configuration run, oracle and traingen execute. An empty value
// leaves its axis as the subcommand's default describes.
type pinFlags struct {
	dataflow *string
	format   *string
}

// addPinFlags registers -dataflow/-format on fs; unpinned says what an
// empty value means for this subcommand.
func addPinFlags(fs *flag.FlagSet, unpinned string) *pinFlags {
	return &pinFlags{
		dataflow: fs.String("dataflow", "", "pin the dataflow axis: outer|inner|row ("+unpinned+")"),
		format:   fs.String("format", "", "pin the A-operand storage format: csr|csc|coo ("+unpinned+")"),
	}
}

// check adds the pin flags' violations to the subcommand's check.
func (pf *pinFlags) check(c *flagcheck.Check) {
	if *pf.dataflow != "" {
		c.OneOf("dataflow", *pf.dataflow, config.DataflowNames()...)
	}
	if *pf.format != "" {
		c.OneOf("format", *pf.format, config.FormatNames()...)
	}
}

// pinned reports whether either axis is pinned.
func (pf *pinFlags) pinned() bool { return *pf.dataflow != "" || *pf.format != "" }

// pin projects c onto the pinned axes. Call it after check passed.
func (pf *pinFlags) pin(c config.Config) config.Config {
	if *pf.dataflow != "" {
		c[config.Dataflow], _ = config.DataflowByName(*pf.dataflow)
	}
	if *pf.format != "" {
		c[config.Format], _ = config.FormatByName(*pf.format)
	}
	return c
}

// pinAll pins every configuration of cfgs in place and drops the
// duplicates the projection creates, keeping first occurrences in order.
func (pf *pinFlags) pinAll(cfgs []config.Config) []config.Config {
	if !pf.pinned() {
		return cfgs
	}
	seen := map[int]bool{}
	out := cfgs[:0]
	for _, c := range cfgs {
		c = pf.pin(c)
		if !seen[c.Index()] {
			out = append(out, c)
			seen[c.Index()] = true
		}
	}
	return out
}
