package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer. Parent is the span
// that caused it (0 for a root); spans of one request share Req.
// Times are nanoseconds since the tracer was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until write. A nil *tracer records
// nothing, which is how untraced runs stay free of tracing cost.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(name string, parent, req int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// selfTimes returns, per span id, the span's duration minus the
// durations of its direct children — the time spent in the layer
// itself. Replay spans are nested by attribution (the child is the
// same input run one layer down, measured as its own call), so a child
// is subtracted whole rather than clipped to the parent's interval.
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// traceFile is what write leaves on disk for one traced run: the run's
// per-layer metrics, the median self time of each span name, and every
// span.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Metrics  map[string]float64 `json:"metrics"`
	SelfMs   map[string]float64 `json:"median_self_ms"`
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed uint64, metrics map[string]float64) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	byName := map[string][]float64{}
	for id, d := range selfTimes(t.spans) {
		name := t.spans[id-1].Name
		byName[name] = append(byName[name], float64(d)/float64(time.Millisecond))
	}
	selfMs := make(map[string]float64, len(byName))
	for name, ms := range byName {
		selfMs[name] = median(ms)
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Metrics: metrics, SelfMs: selfMs, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
