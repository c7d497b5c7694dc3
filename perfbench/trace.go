package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The traced run records one span around every call the benchmark makes
// into a module's public functions. Nothing inside the program is
// instrumented: a span covers the call as its caller sees it, and a
// layer's self time is its span minus the part of it that spans of
// calls made on its behalf (the keep predicate shrink.Minimize calls
// back into, say) cover.

// modules are the layers the trace reports, in stack order.
var modules = []string{
	"gen", "mutate", "parser", "resolve", "basecheck", "core", "eval",
	"ni", "exhaust", "difftest", "ast", "shrink", "corpus", "triage",
}

// Campaign phases: the stages a batch runs on one goroutine (producer,
// consumer, finalize) and the stages its worker pool runs. DiffFuzz's
// up-front generation is its producer and its classify loop its
// consumer; it has no finalize.
const (
	phaseProducer = "producer"
	phaseWorker   = "worker"
	phaseConsumer = "consumer"
	phaseFinalize = "finalize"
)

// Span is one timed call.
type Span struct {
	Name   string        `json:"name"`
	Module string        `json:"module"`
	Phase  string        `json:"phase,omitempty"`
	Job    int64         `json:"job"`
	Parent int           `json:"parent"` // index of the enclosing span; -1 at top level
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Approx marks spans of jobs whose input the traced run could only
	// approximate (mutants whose parent it drew by its own rule).
	Approx bool `json:"approx,omitempty"`
}

// Tracer keeps spans in memory; Write puts them on disk once the run is
// over. It is used from one goroutine.
type Tracer struct {
	t0     time.Time
	spans  []Span
	open   []int // stack of spans not yet ended
	job    int64
	phase  string
	approx bool
	counts map[string]float64
}

func newTracer() *Tracer { return &Tracer{t0: time.Now(), counts: map[string]float64{}} }

// setJob tags the spans that follow with a job id, and whether the job's
// input is approximate.
func (t *Tracer) setJob(job int64, approx bool) { t.job, t.approx = job, approx }

// setPhase tags top-level spans that follow with a campaign phase;
// nested spans inherit their parent's.
func (t *Tracer) setPhase(p string) { t.phase = p }

func (t *Tracer) begin(module, name string) {
	s := Span{Name: name, Module: module, Phase: t.phase, Job: t.job, Parent: -1,
		Approx: t.approx, Start: time.Since(t.t0)}
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1]
		s.Phase = t.spans[s.Parent].Phase
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, s)
}

func (t *Tracer) end() {
	n := len(t.open)
	t.spans[t.open[n-1]].End = time.Since(t.t0)
	t.open = t.open[:n-1]
}

// add bumps a named count recorded at a layer boundary.
func (t *Tracer) add(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// call runs f as one span of module; with a nil tracer it just runs f.
func call[T any](t *Tracer, module, name string, f func() T) T {
	if t == nil {
		return f()
	}
	t.begin(module, name)
	defer t.end()
	return f()
}

// call2 is call for two results.
func call2[A, B any](t *Tracer, module, name string, f func() (A, B)) (A, B) {
	if t == nil {
		return f()
	}
	t.begin(module, name)
	defer t.end()
	return f()
}

// selfTimes returns each span's duration minus the length of the union
// of its children's intervals (clipped to the span).
func selfTimes(spans []Span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := make([][2]time.Duration, 0, len(kids[i]))
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				iv = append(iv, [2]time.Duration{a, b})
			}
		}
		sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
		var covered time.Duration
		var curA, curB time.Duration
		for j, v := range iv {
			switch {
			case j == 0:
				curA, curB = v[0], v[1]
			case v[0] > curB:
				covered += curB - curA
				curA, curB = v[0], v[1]
			case v[1] > curB:
				curB = v[1]
			}
		}
		if len(iv) > 0 {
			covered += curB - curA
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerStats is one module's share of a trace.
type layerStats struct {
	calls int
	busy  time.Duration
}

// traceSummary aggregates a trace by module and by campaign phase.
type traceSummary struct {
	layers map[string]layerStats
	total  time.Duration // all traced self time
	serial time.Duration // self time in the single-goroutine campaign phases
}

func summarize(spans []Span) traceSummary {
	self := selfTimes(spans)
	sum := traceSummary{layers: map[string]layerStats{}}
	for i, s := range spans {
		ls := sum.layers[s.Module]
		ls.calls++
		ls.busy += self[i]
		sum.layers[s.Module] = ls
		sum.total += self[i]
		switch s.Phase {
		case phaseProducer, phaseConsumer, phaseFinalize:
			sum.serial += self[i]
		}
	}
	return sum
}

// write dumps the spans as JSON lines to path.
func (t *Tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
