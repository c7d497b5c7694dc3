package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/corpus"
	"repro/internal/difftest"
	"repro/internal/events"
	"repro/internal/parser"
	"repro/internal/pipeline"
	"repro/internal/shrink"
)

const regressionCorpus = "../../testdata/regression-corpus"

// maintenanceCorpus builds the corpus the pool tests compact: the
// regression corpus plus the findings of an uncapped, unminimized
// campaign, one entry re-recorded under a class it does not reproduce
// (drift: replay reports it, compact skips it), and one metadata file
// without its program (a load error).
func maintenanceCorpus(t *testing.T) string {
	t.Helper()
	dir := copyCorpus(t, regressionCorpus)
	rep, err := Run(context.Background(), Config{
		N: 150, Seed: 7, Gen: smallGen(), NITrials: 2, NITrialsMax: 8,
		Workers: 1, CorpusDir: dir, MaxPerClass: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NewFindings == 0 {
		t.Fatal("set-up campaign persisted nothing")
	}
	c, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for e := range c.Select(corpus.Filter{Class: ClassRejectedClean}) {
		src, err := e.Source()
		if err != nil {
			t.Fatal(err)
		}
		m := e.Meta
		m.Class = ClassSoundnessViolation
		m.Key = DedupKey(m.Class, src)
		if _, err := c.Put(m, src); err != nil {
			t.Fatal(err)
		}
		break
	}
	orphan := Meta{Class: ClassRuntimeError, Key: DedupKey(ClassRuntimeError, "missing")}
	if err := WriteMeta(filepath.Join(dir, "findings", "runtime-error-"+orphan.Key[:12]+".json"), orphan); err != nil {
		t.Fatal(err)
	}
	return dir
}

// findingsFiles reads findings/ (names and contents), leaving out the
// index, whose stat signatures record modification times.
func findingsFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	des, err := os.ReadDir(filepath.Join(dir, "findings"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, de := range des {
		if de.Name() == "index.json" {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, "findings", de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[de.Name()] = string(raw)
	}
	return out
}

// copyTree copies a built corpus (findings/ only) to a fresh directory.
func copyTree(t *testing.T, from string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(filepath.Join(dir, "findings"), os.DirFS(filepath.Join(from, "findings"))); err != nil {
		t.Fatal(err)
	}
	return dir
}

// maintenanceRun is everything one Replay + Compact pass reports, with
// the corpus directory and elapsed times taken out.
type maintenanceRun struct {
	files   map[string]string
	replay  string // ReplayReport as JSON
	compact string // CompactReport as JSON
	log     string
	events  []string // job-done and drift events, in emission order
}

func runMaintenance(t *testing.T, dir string, workers int) maintenanceRun {
	t.Helper()
	var mu sync.Mutex
	var evs []string
	sink := events.Sink(func(e events.Event) {
		if e.Kind != events.KindJobDone && e.Kind != events.KindDrift {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		evs = append(evs, fmt.Sprintf("%s %s %d %s %s %s %s",
			e.Kind, e.Op, e.Index, e.Class, e.Key, e.Detail, strings.ReplaceAll(e.Path, dir, "")))
	})
	c, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	rr, err := Replay(context.Background(), ReplayConfig{CorpusDir: dir, Corpus: c, Workers: workers, Log: &log, Events: sink})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := Compact(context.Background(), CompactConfig{CorpusDir: dir, Corpus: c, Workers: workers, Log: &log, Events: sink})
	if err != nil {
		t.Fatal(err)
	}
	rr.Elapsed, cr.Elapsed = 0, 0
	strip := func(v any) string {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return strings.ReplaceAll(string(raw), dir, "")
	}
	return maintenanceRun{
		files:   findingsFiles(t, dir),
		replay:  strip(rr),
		compact: strip(cr),
		log:     strings.ReplaceAll(log.String(), dir, ""),
		events:  evs,
	}
}

// TestCompactReplayIdenticalAtAnyWorkerCount: Replay then Compact over
// one corpus at Workers 1, 2, 4, and 8 leave byte-identical findings/
// directories (names and contents) and identical reports (apart from
// Elapsed), log text, and job-done/drift event sequences, with Index
// ascending per operation.
func TestCompactReplayIdenticalAtAnyWorkerCount(t *testing.T) {
	built := maintenanceCorpus(t)
	want := runMaintenance(t, copyTree(t, built), 1)

	// The corpus exercises every fold path: drift, a load error, and
	// entries that shrink.
	if !strings.Contains(want.replay, `"Drifts":[{`) || !strings.Contains(want.replay, `"Errors":["`) {
		t.Fatalf("set-up corpus has no drift or no load error: %s", want.replay)
	}
	if !strings.Contains(want.log, "minimized: ") || !strings.Contains(want.log, "collapsed: ") {
		t.Fatalf("no entry was minimized or no entry collapsed:\n%s", want.log)
	}
	t.Logf("compact: %s", want.compact)
	last := map[string]int64{}
	for _, ev := range want.events {
		var kind, op string
		var idx int64
		fmt.Sscanf(ev, "%s %s %d", &kind, &op, &idx)
		if kind != events.KindJobDone.String() {
			continue
		}
		if prev, ok := last[op]; ok && idx <= prev {
			t.Fatalf("%s job-done indices not ascending: %d after %d", op, idx, prev)
		}
		last[op] = idx
	}

	for _, workers := range []int{2, 4, 8} {
		got := runMaintenance(t, copyTree(t, built), workers)
		if len(got.files) != len(want.files) {
			t.Errorf("workers=%d: %d files in findings/, want %d", workers, len(got.files), len(want.files))
		}
		for name, content := range want.files {
			if got.files[name] != content {
				t.Errorf("workers=%d: findings/%s differs from the one-worker pass", workers, name)
			}
		}
		if got.replay != want.replay {
			t.Errorf("workers=%d: replay report\n%s\nwant\n%s", workers, got.replay, want.replay)
		}
		if got.compact != want.compact {
			t.Errorf("workers=%d: compact report\n%s\nwant\n%s", workers, got.compact, want.compact)
		}
		if got.log != want.log {
			t.Errorf("workers=%d: log\n%s\nwant\n%s", workers, got.log, want.log)
		}
		if strings.Join(got.events, "\n") != strings.Join(want.events, "\n") {
			t.Errorf("workers=%d: event sequence differs:\n%s\nwant\n%s", workers,
				strings.Join(got.events, "\n"), strings.Join(want.events, "\n"))
		}
	}
}

// TestCompactCancelledMidway: cancelling Compact after its third entry
// returns ctx.Err() with no goroutine left behind. Promote-first holds:
// every original finding is still present or represented by the key its
// minimized form (transitively) landed on, and the corpus replays clean.
func TestCompactCancelledMidway(t *testing.T) {
	dir := copyTree(t, maintenanceCorpus(t))
	// The key each well-formed entry minimizes to (none when it does not
	// shrink or drifted), computed entry by entry with no corpus writes.
	ref, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	minKey := map[string]string{}
	var orig []string
	for e := range ref.Select(corpus.Filter{}) {
		orig = append(orig, e.Meta.Key)
		if r := compactOne(context.Background(), e, 4, 32); r.key != "" {
			minKey[e.Meta.Key] = r.key
		}
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := 0
	sink := events.Sink(func(e events.Event) {
		if e.Kind == events.KindJobDone {
			if done++; done == 3 {
				cancel()
			}
		}
	})
	rep, err := Compact(ctx, CompactConfig{CorpusDir: dir, Workers: 4, Events: sink})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Compact returned %v, want context.Canceled", err)
	}
	if rep.Total != 3 {
		t.Errorf("cancelled Compact folded %d entries, want the 3 before cancellation", rep.Total)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the cancelled Compact, %d before", n, before)
	}

	after, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	untouched := 0
	for _, k := range orig {
		if after.Has(k) {
			untouched++
		}
		at := k
		for hops := 0; !after.Has(at); hops++ {
			next, ok := minKey[at]
			if !ok || hops > len(orig) {
				t.Errorf("finding %.12s lost: neither it nor its minimized form is in the corpus", k)
				break
			}
			at = next
		}
	}
	if untouched == len(orig) {
		t.Error("no entry was rewritten before the cancellation took effect")
	}
	if untouched == len(orig)-len(minKey) {
		t.Error("every shrinkable entry was rewritten: the cancellation did not stop the pass")
	}
	rr, err := Replay(context.Background(), ReplayConfig{CorpusDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Drifts) != 1 || len(rr.Errors) != 1 {
		t.Errorf("after the cancelled Compact: %d drifts, %d errors; want only the planted drift and load error:\n%s",
			len(rr.Drifts), len(rr.Errors), FormatReplayReport(rr))
	}
}

// replayString is how Compact's keep predicate classified a candidate
// before the shrinker handed its parse over: from the source text alone,
// with the pipeline parsing it again.
func replayString(m Meta, src string) (string, error) {
	if m.Class != ClassGeneratorBug {
		prog, err := parser.Parse("replay.p4", src)
		if err != nil {
			return "unparseable", nil
		}
		if m.Class == ClassParserDisagreement || m.Class == ClassRoundtripClean {
			if _, bad := roundtripDisagreement("replay.p4", prog); bad {
				return string(ClassParserDisagreement), nil
			}
			return string(ClassRoundtripClean), nil
		}
	}
	lat, err := m.Gen.ResolveLattice()
	if err != nil {
		return "", err
	}
	trials, max := replayBudget(m.NITrials, m.NITrialsMax)
	sum, err := pipeline.Run(context.Background(), []pipeline.Job{{Name: "replay.p4", Source: src, Lat: lat}}, pipeline.Options{
		Workers: 1, NI: pipeline.NIAll, NITrials: trials, NITrialsMax: max, NISeed: m.NISeed,
		Oracle: m.NIOracle, ExhaustBudget: m.ExhaustBudget, ExhaustProbes: m.ExhaustProbes,
	})
	if err != nil {
		return "", err
	}
	v, _ := difftest.Classify(&sum.Results[0])
	if class, ok := classOf(v); ok {
		return string(class), nil
	}
	switch v {
	case difftest.Sound:
		return string(ClassSound), nil
	case difftest.RejectedWitnessed:
		return string(ClassRejectedWitnessed), nil
	}
	return v.String(), nil
}

// TestCompactParsedKeepMatchesStringKeep: on every regression-corpus
// entry and every candidate its shrink tries, classifying the handed
// parse gives the same class as classifying the source text, and
// MinimizeParsed lands on the same result as Minimize with the string
// predicate. Each entry is also tried under the two classes whose replay
// takes another path, roundtrip-clean (roundtrip only) and generator-bug
// (no unparseable check).
func TestCompactParsedKeepMatchesStringKeep(t *testing.T) {
	c, err := corpus.Open(regressionCorpus)
	if err != nil {
		t.Fatal(err)
	}
	candidates := 0
	for e := range c.Select(corpus.Filter{}) {
		src, err := e.Source()
		if err != nil {
			t.Fatal(err)
		}
		for _, class := range []Class{e.Meta.Class, ClassRoundtripClean, ClassGeneratorBug} {
			m := e.Meta
			m.Class = class
			rp := newReplayer(context.Background(), m, 4, 32)
			parsedKeep := func(cand string, prog *ast.Program) bool {
				candidates++
				got, _, err := rp.replay(cand, prog, false)
				want, wantErr := replayString(m, cand)
				if got != want || (err == nil) != (wantErr == nil) {
					t.Errorf("%s as %s: candidate classified %q (%v) from its parse, %q (%v) from its text",
						e.Name, class, got, err, want, wantErr)
				}
				return err == nil && got == string(m.Class)
			}
			stringKeep := func(cand string) bool {
				got, err := replayString(m, cand)
				return err == nil && got == string(m.Class)
			}
			name := strings.TrimSuffix(e.Name, ".json") + ".p4"
			parsed, perr := shrink.MinimizeParsed(name, src, parsedKeep)
			plain, serr := shrink.Minimize(name, src, stringKeep)
			if (perr == nil) != (serr == nil) || parsed != plain {
				t.Errorf("%s as %s: MinimizeParsed = %+v, %v; Minimize = %+v, %v", e.Name, class, parsed, perr, plain, serr)
			}
		}
	}
	if candidates == 0 {
		t.Fatal("no shrink candidate was tried")
	}
	t.Logf("%d candidates", candidates)
}
