package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op; Parent names the span that made the call.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the traced run began
	Dur    int64  `json:"dur_ns"`
	// Calls is set on an aggregate span: Calls calls folded into one
	// record, Start being that of the enclosing call.
	Calls int64 `json:"calls,omitempty"`
}

// tracer keeps the traced run's spans in memory until writeFile. A nil
// tracer records nothing: untraced operations get nil.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) span(name string, op int, parent string, start time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		Name: name, Op: op, Parent: parent,
		Start: int64(start.Sub(t.origin)), Dur: int64(time.Since(start)),
	})
}

func (t *tracer) aggregate(name string, op int, parent string, start time.Time, durNs, calls int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		Name: name, Op: op, Parent: parent,
		Start: int64(start.Sub(t.origin)), Dur: durNs, Calls: calls,
	})
}

// writeFile writes the spans as one JSON document.
func (t *tracer) writeFile(path string) error {
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
