package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// catalog is the part of BENCHMARK.json the benchmark reads: the run
// length, the workloads and the metric catalog with each end-to-end
// metric's direction and regression bound.
type catalog struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []catalogMetric `json:"end_to_end"`
	PerLayer []catalogMetric `json:"per_layer"`
}

type catalogMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadCatalog(path string) (*catalog, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c catalog
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if c.RunSeconds <= 0 {
		return nil, fmt.Errorf("%s: run_seconds must be positive", path)
	}
	return &c, nil
}

// reported returns the catalog metrics a run reports: the end-to-end
// metrics for an untraced run, the per-layer metrics for a traced one.
func (c *catalog) reported(traced bool) []catalogMetric {
	if traced {
		return c.PerLayer
	}
	return c.EndToEnd
}

func (c *catalog) lookup(name string) (catalogMetric, bool) {
	for _, m := range append(append([]catalogMetric(nil), c.EndToEnd...), c.PerLayer...) {
		if m.Name == name {
			return m, true
		}
	}
	return catalogMetric{}, false
}

// missing lists the catalog metrics res should carry but does not, or
// carries in another unit.
func (c *catalog) missing(res *result) []string {
	var out []string
	for _, m := range c.reported(res.Traced) {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			out = append(out, m.Name)
		case got.Unit != m.Unit:
			out = append(out, fmt.Sprintf("%s (unit %s, catalog %s)", m.Name, got.Unit, m.Unit))
		}
	}
	return out
}

// printResult writes one workload's metrics as a table: the catalog's
// metrics first, then every other measurement the run took.
func printResult(w io.Writer, c *catalog, res *result) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s · seed %d · %d s · %s ==\n", res.Workload, res.Stamp.Seed, res.Seconds, mode)
	fmt.Fprintf(w, "%-32s %14s  %-9s %6s  %s\n", "metric", "value", "unit", "n", "note")
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	rank := map[string]int{}
	for i, m := range append(append([]catalogMetric(nil), c.EndToEnd...), c.PerLayer...) {
		rank[m.Name] = i + 1
	}
	sort.Slice(names, func(i, j int) bool {
		ri, rj := rank[names[i]], rank[names[j]]
		if (ri == 0) != (rj == 0) {
			return ri != 0
		}
		if ri != rj {
			return ri < rj
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-32s %14.6g  %-9s %6d  %s\n", name, m.Value, m.Unit, m.N, m.Note)
	}
	verdict := "yes"
	if len(res.Problems) > 0 {
		verdict = "NO"
	}
	fmt.Fprintf(w, "correct: %s  attempted: %d  failed: %d  digest: %s\n", verdict, res.Attempted, res.Failed, res.Digest)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	fmt.Fprintf(w, "machine: %s  commit: %s\n\n", res.Stamp.machine(), res.Stamp.Commit)
}

// summary is the last line of a run's standard output.
type summary struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

// summarize folds the workload results into the summary line. A single
// workload's metrics keep their catalog names; with several workloads each
// name is prefixed with its workload.
func summarize(c *catalog, results []*result) summary {
	s := summary{Correct: len(results) > 0, Metrics: map[string]map[string]any{}}
	for _, res := range results {
		s.Attempted += res.Attempted
		s.Failed += res.Failed
		if len(res.Problems) > 0 {
			s.Correct = false
		}
		for _, m := range c.reported(res.Traced) {
			got, ok := res.Metrics[m.Name]
			if !ok {
				continue
			}
			name := m.Name
			if len(results) > 1 {
				name = res.Workload + "/" + m.Name
			}
			s.Metrics[name] = map[string]any{"value": got.Value, "unit": got.Unit}
		}
	}
	return s
}

// runRecord is one line of an -out file: every workload result of one run.
type runRecord struct {
	Stamp   stamp     `json:"stamp"`
	Results []*result `json:"results"`
}

func appendRun(path string, st stamp, results []*result) error {
	data, err := json.Marshal(runRecord{Stamp: st, Results: results})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return runs, nil
}

// compareFiles prints, for every (workload, metric) both files measured,
// each side's median and quartiles over its runs. A metric is unresolved
// when either side's run-to-run spread (IQR over median) exceeds its
// bound, and worse when the second side's median is worse than the
// first's by more than the bound. Files from different machines are
// refused.
func compareFiles(w io.Writer, c *catalog, pathA, pathB string) error {
	a, err := readRuns(pathA)
	if err != nil {
		return err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return err
	}
	machine := a[0].Stamp.machine()
	for _, r := range append(append([]runRecord(nil), a...), b...) {
		if r.Stamp.machine() != machine {
			return fmt.Errorf("refusing to compare results from different machines:\n  %s\n  %s", machine, r.Stamp.machine())
		}
	}
	va, vb := collect(a), collect(b)
	keys := make([]string, 0, len(va))
	for k := range va {
		if _, ok := vb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "machine: %s\nA: %s (%d runs)\nB: %s (%d runs)\n", machine, pathA, len(a), pathB, len(b))
	fmt.Fprintf(w, "%-40s %12s %25s %12s %25s %8s  %s\n", "workload/metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "change", "verdict")
	for _, k := range keys {
		_, name, _ := strings.Cut(k, "/")
		cm, known := c.lookup(name)
		ma, mb := median(va[k]), median(vb[k])
		a1, a3 := quartiles(va[k])
		b1, b3 := quartiles(vb[k])
		change := (mb - ma) / math.Abs(ma)
		verdict := "-"
		if known && cm.Bound > 0 {
			worse := change
			if cm.Better == "higher" {
				worse = -change
			}
			switch {
			case (a3-a1)/math.Abs(ma) > cm.Bound || (b3-b1)/math.Abs(mb) > cm.Bound:
				verdict = "unresolved"
			case worse > cm.Bound:
				verdict = "WORSE"
			default:
				verdict = "ok"
			}
		}
		fmt.Fprintf(w, "%-40s %12.6g %25s %12.6g %25s %+7.1f%%  %s\n", k, ma,
			fmt.Sprintf("[%.6g, %.6g]", a1, a3), mb, fmt.Sprintf("[%.6g, %.6g]", b1, b3), change*100, verdict)
	}
	return nil
}

// collect gathers every metric value of a side, keyed workload/metric.
func collect(runs []runRecord) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range runs {
		for _, res := range r.Results {
			for name, m := range res.Metrics {
				k := res.Workload + "/" + name
				out[k] = append(out[k], m.Value)
			}
		}
	}
	return out
}
