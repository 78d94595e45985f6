package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced call: a named interval with the span that caused it
// (0 for a root), the request it served ("" outside any request) and the
// work it did as a count (events traced or replayed), where that applies.
type span struct {
	ID, Parent int
	Name, Req  string
	Start, End time.Duration // since the tracer's origin; End < 0 while open
	Count      int
}

// tracer records spans in memory around the benchmark's calls into the
// program. A nil *tracer records nothing, so untraced runs pay one nil
// check per call site.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(parent int, name, req string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// count records the work span id did.
func (t *tracer) count(id, n int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Count = n
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere, such as a job's
// daemon-stamped start and finish times.
func (t *tracer) add(parent int, name, req string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)})
	return len(t.spans)
}

// timed runs fn inside a span and returns its wall time.
func (t *tracer) timed(parent int, name, req string, fn func(id int) error) (time.Duration, error) {
	id := t.begin(parent, name, req)
	start := time.Now()
	err := fn(id)
	d := time.Since(start)
	t.end(id)
	return d, err
}

// snapshot returns a copy of the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children (overlapping children count once).
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.End - s.Start - covered(s, kids[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi time.Duration
	open := false
	for _, v := range ivs {
		if open && v.lo <= curHi {
			curHi = max(curHi, v.hi)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = v.lo, v.hi, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// durations returns the durations of the spans named name, in record order.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// writeChrome writes spans as Chrome trace_event JSON (loadable in
// Perfetto or chrome://tracing). Each request gets its own track so its
// spans nest; spans outside any request share track 0.
func writeChrome(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	tracks := map[string]int{"": 0}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		tid, ok := tracks[s.Req]
		if !ok {
			tid = len(tracks)
			tracks[s.Req] = tid
		}
		ev := event{Name: s.Name, Ph: "X", TS: usOf(s.Start), Dur: usOf(s.End - s.Start), PID: 1, TID: tid}
		if s.Req != "" || s.Count != 0 {
			ev.Args = map[string]any{"req": s.Req, "count": s.Count}
		}
		events = append(events, ev)
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
