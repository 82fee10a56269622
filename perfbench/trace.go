package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer: wall-clock start and duration for
// the timeline, and the process CPU time it used. Parent is the ID of the
// enclosing span (0 at top level), so a span's self time is its duration
// minus the durations of the spans naming it as parent.
type span struct {
	name            string
	start, dur, cpu time.Duration
	id, parent      int
	args            map[string]any
}

// tracer keeps spans in memory until the run ends; spans nest as a stack.
// A nil *tracer records nothing, and its end returns 0.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // indices into spans
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span inside the innermost open one.
func (t *tracer) begin(name string, args map[string]any) {
	if t == nil {
		return
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].id
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.origin), cpu: cpuNow(), id: len(t.spans) + 1, parent: parent, args: args})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span and returns the CPU time it used.
func (t *tracer) end() time.Duration {
	if t == nil {
		return 0
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	s.cpu = cpuNow() - s.cpu
	s.dur = time.Since(t.origin) - s.start
	return s.cpu
}

// chromeEvent is a complete ("X") event of the Chrome trace-event format;
// timestamps and durations are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every span as Chrome trace-event JSON, loadable in
// Perfetto or chrome://tracing, with the environment stamp as metadata.
func (t *tracer) writeChrome(path string, env envStamp) error {
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"id": s.id, "parent": s.parent, "cpu_us": float64(s.cpu.Nanoseconds()) / 1e3}
		for k, v := range s.args {
			args[k] = v
		}
		events[i] = chromeEvent{
			Name: s.name, Cat: "perfbench", Ph: "X",
			TS: float64(s.start.Nanoseconds()) / 1e3, Dur: float64(s.dur.Nanoseconds()) / 1e3,
			PID: 1, TID: 1, Args: args,
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		OtherData       envStamp      `json:"otherData"`
	}{events, "ms", env})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}
