package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/ast"
	"repro/internal/campaign"
	"repro/internal/corpus"
	"repro/internal/parser"
	"repro/internal/shrink"
	"repro/internal/triage"
)

// The maintenance workload is the nightly's pre-campaign step: a fresh
// Session runs Replay, Triage, and Compact over an unminimized corpus.
// Set-up builds that corpus with an uncapped campaign on one worker, so
// the corpus — every entry and each duplicate's winning NI seed — is a
// function of the window alone.
const (
	maintBase     = 3_000_000
	maintPrograms = 1000 // programs in the set-up campaign
	// maintWindows is how many corpora every run compacts, in an order
	// drawn from the seed: the cost of compacting one corpus differs from
	// the next by more than a run of a few passes can average out.
	maintWindows = 4
)

func maintSeed(window int) int64 { return maintBase + int64(window)*maintPrograms }

// maintPass is one timed replay → triage → compact pass.
type maintPass struct {
	window                        int
	entries                       int
	wall, replayWall, compactWall time.Duration
	replay                        *repro.ReplayReport
	after                         int // entries left after compact
}

// buildCorpus runs the set-up campaign for window into a fresh directory.
func buildCorpus(ctx context.Context, env *env, window int) (string, error) {
	dir, err := os.MkdirTemp(env.work, "maintenance-")
	if err != nil {
		return "", err
	}
	s, err := repro.NewSession(repro.WithCorpus(dir), repro.WithSeed(maintSeed(window)),
		repro.WithWorkers(1), repro.WithMaxPerClass(-1), repro.WithNIBudget(niTrials, niTrialsMax))
	if err != nil {
		return "", err
	}
	defer s.Close()
	rep, err := s.Campaign(ctx, maintPrograms)
	if err != nil {
		return "", err
	}
	if !rep.OK() {
		return "", fmt.Errorf("maintenance window %d: set-up campaign found defects", window)
	}
	return dir, nil
}

// runPass builds window's corpus (set-up) and runs one timed pass over it.
func runPass(ctx context.Context, env *env, window int, m *measurement) (maintPass, error) {
	p := maintPass{window: window}
	t0 := time.Now()
	dir, err := buildCorpus(ctx, env, window)
	if err != nil {
		return p, err
	}
	defer os.RemoveAll(dir)
	m.setup = append(m.setup, time.Since(t0))

	s, err := repro.NewSession(repro.WithCorpus(dir), repro.WithWorkers(runtime.NumCPU()),
		repro.WithNIBudget(niTrials, niTrialsMax), repro.WithEventBuffer(eventBuffer))
	if err != nil {
		return p, err
	}
	l := listen(s)
	var tri *repro.TriageReport
	var cmp *repro.CompactReport
	var triWall, c1, c2, c3 time.Duration
	p.replayWall, c1, err = m.timed(func() (err error) { p.replay, err = s.Replay(ctx); return })
	if err == nil {
		triWall, c2, err = m.timed(func() (err error) { tri, err = s.Triage(); return })
	}
	if err == nil {
		p.compactWall, c3, err = m.timed(func() (err error) { cmp, err = s.Compact(ctx); return })
	}
	p.wall = p.replayWall + triWall + p.compactWall
	if err == nil {
		var corp *repro.Corpus
		if corp, err = s.Corpus(); err == nil {
			p.after = corp.Len()
		}
	}
	if lerr := l.close(s); lerr != nil && err == nil {
		err = lerr
	}
	if err != nil {
		return p, fmt.Errorf("maintenance window %d: %w", window, err)
	}
	p.entries = p.replay.Total
	m.units += p.entries
	m.interval(p.entries, p.wall, c1+c2+c3)
	m.addVerdicts(l.latencies("compact", 1))
	checkPass(env.pins.maintenance(window), &p, tri, cmp, m)
	return p, nil
}

// checkPass compares one pass with the window's pin and counts its
// entries: all of them failed if a check fails, else those that drifted
// or that Replay or Compact reported an error for.
func checkPass(pin *maintPin, p *maintPass, tri *repro.TriageReport, cmp *repro.CompactReport, m *measurement) {
	bad := len(m.problems)
	rep := p.replay
	switch {
	case pin == nil:
		m.fail("maintenance window %d: no pin", p.window)
	case rep.Total != pin.Entries || len(rep.Drifts) != 0 || len(rep.Errors) != 0:
		m.fail("maintenance window %d: replayed %d entries, %d drifted, %d errors (pinned %d entries)",
			p.window, rep.Total, len(rep.Drifts), len(rep.Errors), pin.Entries)
	case !sameHist(replayHist(rep), pin.Classes):
		m.fail("maintenance window %d: replay classes %v differ from pinned %v", p.window, replayHist(rep), pin.Classes)
	case !tri.OK() || tri.Total != pin.Entries:
		m.fail("maintenance window %d: triage covered %d of %d entries", p.window, tri.Total, pin.Entries)
	case !cmp.OK() || cmp.Total != pin.Entries || p.after != pin.AfterCompact:
		m.fail("maintenance window %d: compact %d errors, %d entries left (pinned %d)",
			p.window, len(cmp.Errors), p.after, pin.AfterCompact)
	}
	n := max(rep.Total, 1)
	m.attempted += n
	if len(m.problems) > bad {
		m.failed += n
		return
	}
	m.failed += len(rep.Drifts) + len(rep.Errors) + len(cmp.Errors)
}

// replayHist is the replayed class histogram. With no drift every entry
// reproduces its recorded class, so it is the recorded histogram.
func replayHist(r *repro.ReplayReport) map[string]int {
	h := map[string]int{}
	for c, n := range r.ByClass {
		h[string(c)] = n
	}
	for _, d := range r.Drifts {
		h[string(d.Recorded)]--
		h[d.Got]++
	}
	return h
}

func sameHist(a, b map[string]int) bool {
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	for k, v := range b {
		if a[k] != v {
			return false
		}
	}
	return true
}

// runMaintenance runs one pass per window, each over its own freshly
// built corpus.
func runMaintenance(ctx context.Context, env *env, m *measurement) ([]maintPass, error) {
	var out []maintPass
	for _, window := range rand.New(rand.NewSource(env.seed)).Perm(maintWindows) {
		p, err := runPass(ctx, env, window, m)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// tracedPass is what a traced pass reports besides its spans.
type tracedPass struct {
	hist  map[string]int // replayed classes
	after int            // entries left after compact
	wall  time.Duration  // excluding the corpus build
}

// tracePass repeats one pass on one goroutine over a freshly built copy
// of window's corpus: open, replay each entry, triage, then compact each
// entry (re-check, shrink, dedup, rewrite) and save the index.
func tracePass(ctx context.Context, t *Tracer, env *env, window int) (tracedPass, error) {
	tp := tracedPass{hist: map[string]int{}}
	dir, err := buildCorpus(ctx, env, window)
	if err != nil {
		return tp, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	t.setPhase("")
	t.setJob(-1, false)
	corp, err := call2(t, "corpus", "corpus.Open", func() (*corpus.Corpus, error) { return corpus.Open(dir) })
	if err != nil {
		return tp, err
	}
	var entries []*corpus.Entry
	for e, err := range corp.Entries() {
		if err != nil {
			return tp, err
		}
		entries = append(entries, e)
	}
	for i, e := range entries {
		t.setJob(int64(i), false)
		src, err := call2(t, "corpus", "corpus.Entry.Source", e.Source)
		if err != nil {
			return tp, err
		}
		got, err := replayOne(t, e.Meta, src)
		if err != nil {
			return tp, err
		}
		tp.hist[got]++
	}
	t.setJob(-1, false)
	tri, err := call2(t, "triage", "triage.Triage", func() (*triage.Report, error) {
		return triage.Triage(triage.Config{CorpusDir: dir, Corpus: corp})
	})
	if err != nil || !tri.OK() {
		return tp, fmt.Errorf("traced triage: %v", err)
	}
	for i, e := range entries {
		t.setJob(int64(i), false)
		m := e.Meta
		src, err := call2(t, "corpus", "corpus.Entry.Source", e.Source)
		if err != nil {
			return tp, err
		}
		if got, err := replayOne(t, m, src); err != nil || got != string(m.Class) {
			continue
		}
		keep := func(cand string) bool {
			t.add("shrink.candidates", 1)
			got, err := replayOne(t, m, cand)
			ok := err == nil && got == string(m.Class)
			if ok {
				t.add("shrink.accepted", 1)
			}
			return ok
		}
		name := strings.TrimSuffix(e.Name, ".json") + ".p4"
		res, err := call2(t, "shrink", "shrink.Minimize", func() (shrink.Result, error) { return shrink.Minimize(name, src, keep) })
		t.add("shrink.inputs", 1)
		t.add("shrink.bytes_in", float64(len(src)))
		if err != nil || len(res.Source) >= len(src) {
			t.add("shrink.bytes_out", float64(len(src)))
			continue
		}
		t.add("shrink.bytes_out", float64(len(res.Source)))
		t.add("corpus.dedup_checks", 1)
		newKey := call(t, "corpus", "corpus.DedupKey", func() string { return corpus.DedupKey(m.Class, res.Source) })
		if call(t, "corpus", "corpus.Has", func() bool { return corp.Has(newKey) }) {
			t.add("corpus.dedup_hits", 1)
			if err := call(t, "corpus", "corpus.Remove", func() error { return corp.Remove(e) }); err != nil {
				return tp, err
			}
			continue
		}
		nm := m
		nm.Key, nm.Bytes, nm.Minimized = newKey, len(res.Source), true
		if _, err := call2(t, "corpus", "corpus.Put", func() (string, error) { return corp.Put(nm, res.Source) }); err != nil {
			return tp, err
		}
		if err := call(t, "corpus", "corpus.Remove", func() error { return corp.Remove(e) }); err != nil {
			return tp, err
		}
	}
	t.setJob(-1, false)
	if err := call(t, "corpus", "corpus.SaveIndex", corp.SaveIndex); err != nil {
		return tp, err
	}
	tp.after = corp.Len()
	tp.wall = time.Since(start)
	return tp, nil
}

// replayOne re-checks one corpus entry the way replay does: parser
// disagreements by roundtrip, everything else through the stages at the
// entry's recorded NI seed, budget, and oracle.
func replayOne(t *Tracer, m corpus.Meta, src string) (string, error) {
	if m.Class != campaign.ClassGeneratorBug {
		t.add("parser.bytes", float64(len(src)))
		prog, err := call2(t, "parser", "parser.Parse", func() (*ast.Program, error) { return parser.Parse("replay.p4", src) })
		if err != nil {
			return "unparseable", nil
		}
		if m.Class == campaign.ClassParserDisagreement || m.Class == campaign.ClassRoundtripClean {
			if roundtrip(t, "replay.p4", prog) {
				return string(campaign.ClassParserDisagreement), nil
			}
			return string(campaign.ClassRoundtripClean), nil
		}
	}
	lat, err := m.Gen.ResolveLattice()
	if err != nil {
		return "", err
	}
	nc := niConfig{trials: niTrials, max: niTrialsMax, seed: m.NISeed, oracle: m.NIOracle,
		budget: m.ExhaustBudget, probes: m.ExhaustProbes}
	if m.NITrials > 0 {
		nc.trials = m.NITrials
	}
	if m.NITrialsMax > 0 {
		nc.max = m.NITrialsMax
	}
	r := analyze(t, "replay.p4", src, lat, nc)
	v, _ := classify(t, &r)
	return replayClass(v), nil
}
