package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro"
)

// measurement accumulates the timed part of one untraced run.
type measurement struct {
	units int           // programs analyzed or checked, or corpus entries
	wall  time.Duration // wall time inside timed operations
	alloc uint64        // bytes allocated over the same intervals
	gcs   uint32        // GC cycles over the same intervals
	setup []time.Duration
	// verdicts holds each unit's time to verdict in milliseconds, one
	// group per interval.
	verdicts [][]float64
	rss      float64 // peak resident set (MB) when the untraced work ended
	// Per interval (a batch, pass, or set of calls): units per wall
	// second and CPU milliseconds per unit. Their medians are the
	// reported rates, robust to a noisy neighbour stalling one interval.
	rates, cpuPer []float64

	attempted, failed int
	problems          []string // failed output checks
}

// fail records a failed output check.
func (m *measurement) fail(format string, args ...any) {
	m.problems = append(m.problems, fmt.Sprintf(format, args...))
}

// timed runs f as part of the timed work, charging its wall time, CPU
// time, and allocation to m.
func (m *measurement) timed(f func() error) (wall, cpu time.Duration, err error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	err = f()
	wall = time.Since(t0)
	cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	m.wall += wall
	m.alloc += ms1.TotalAlloc - ms0.TotalAlloc
	m.gcs += ms1.NumGC - ms0.NumGC
	return wall, cpu, err
}

// addVerdicts records one interval's times to verdict.
func (m *measurement) addVerdicts(ds []time.Duration) {
	m.verdicts = append(m.verdicts, millis(ds))
}

// interval records one interval's rate and CPU cost.
func (m *measurement) interval(units int, wall, cpu time.Duration) {
	if units > 0 && wall > 0 {
		m.rates = append(m.rates, float64(units)/wall.Seconds())
		m.cpuPer = append(m.cpuPer, float64(cpu)/float64(time.Millisecond)/float64(units))
	}
}

// cpuTime is the process's user+sys time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// listener records, for each operation, when it started and when each
// job-done event was emitted. Both timestamps are taken by the emitting
// engine, so they do not depend on how promptly this goroutine drains
// the channel.
type listener struct {
	done  chan struct{}
	start map[string]time.Time
	ends  map[string][]jobDone
}

// jobDone is one verdict: the job's index within its operation and the
// time the engine emitted it.
type jobDone struct {
	index int64
	at    time.Time
}

func listen(s *repro.Session) *listener {
	l := &listener{done: make(chan struct{}), start: map[string]time.Time{}, ends: map[string][]jobDone{}}
	ch := s.Events()
	go func() {
		defer close(l.done)
		for e := range ch {
			switch e.Kind {
			case repro.EventOpStart:
				l.start[e.Op] = e.Time
			case repro.EventJobDone:
				l.ends[e.Op] = append(l.ends[e.Op], jobDone{e.Index, e.Time})
			}
		}
	}()
	return l
}

// close closes the session, waits for the listener to drain, and
// reports lost events: latencies across a dropped event would be wrong.
func (l *listener) close(s *repro.Session) error {
	s.Close()
	<-l.done
	if d := s.Dropped(); d > 0 {
		return fmt.Errorf("%d events dropped; verdict latencies incomplete", d)
	}
	return nil
}

// latencies reconstructs each job's time to verdict in an operation run
// by a pool of workers fed in index order: the first workers jobs start
// with the operation, and each verdict frees the worker that reported it
// to start the next job in index order, so job j starts at the
// (j-workers)-th verdict. With one worker this is the time from one
// verdict to the next.
func (l *listener) latencies(op string, workers int) []time.Duration {
	ends := l.ends[op]
	out := make([]time.Duration, 0, len(ends))
	for _, e := range ends {
		start := l.start[op]
		if k := int(e.index) - workers; k >= 0 && k < len(ends) {
			start = ends[k].at
		}
		out = append(out, e.at.Sub(start))
	}
	return out
}

// eventBuffer holds a whole batch's events, so none is dropped.
const eventBuffer = 1 << 16
