// Compact: re-minimize the corpus with the current shrinker. A corpus
// accumulates entries minimized by older, weaker shrinkers (or not
// minimized at all, when the finding run had -minimize off); as the
// shrinker improves, distinct entries can share one canonical minimal
// form. Compacting re-runs minimization over every entry under its
// recorded replay budget and folds the corpus onto the smaller forms:
//
//   - an entry whose minimized form hashes to a key already in the corpus
//     collapses — it is removed, and the existing entry (same class by
//     construction: dedup keys hash class and source together) survives
//     as the pair's canonical representative;
//   - an entry whose minimized form is new is rewritten promote-first:
//     the smaller pair is persisted before the old one is removed, so a
//     crash mid-compaction duplicates a finding rather than losing one;
//   - entries that no longer reproduce their recorded class are skipped —
//     drift is Retire's business, and minimizing against a drifted
//     predicate would record the wrong program.
//
// The keep predicate replays candidates with the entry's recorded NI
// seed and trial budget, so a compacted corpus replays clean by the same
// argument the original persistence did.
package campaign

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/corpus"
	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/shrink"
)

// CompactConfig configures a corpus compaction.
type CompactConfig struct {
	// CorpusDir is the corpus to compact.
	CorpusDir string
	// Corpus is an already-open handle over CorpusDir; when set, the pass
	// runs through it instead of opening the directory again.
	Corpus *corpus.Corpus
	// NITrials and NITrialsMax are the replay budget for entries whose
	// metadata predates budget recording (campaign defaults).
	NITrials    int
	NITrialsMax int
	// Workers bounds the pool that re-checks and re-minimizes entries
	// (<= 0 = GOMAXPROCS). The corpus, report, log, and events do not
	// depend on it.
	Workers int
	// Log receives one line per rewritten or collapsed entry (nil =
	// discard).
	Log io.Writer
	// Events receives job-done events per entry and a final progress
	// tick; nil discards.
	Events events.Sink
	// Metrics, when non-nil, receives the pass's collapse statistics
	// (compact_entries_total, compact_minimized_total,
	// compact_collapsed_total, compact_bytes_saved_total,
	// compact_skipped_total). The Session persists them into the corpus's
	// metrics.json, where triage.DiffReports picks them up so nightly
	// summaries show corpus convergence, not just growth.
	Metrics *metrics.Registry
}

// CompactReport is a compaction's outcome.
type CompactReport struct {
	CorpusDir string `json:"corpus_dir"`
	// Total counts well-formed entries examined; Skipped those left alone
	// because they drifted from their recorded class (or their pair was
	// corrupt) — Retire's business, not Compact's.
	Total   int `json:"total"`
	Skipped int `json:"skipped"`
	// Minimized counts entries rewritten to a strictly smaller form under
	// a new key; Collapsed counts entries removed because their minimized
	// form already had a corpus entry. BytesSaved totals the reduction.
	Minimized  int `json:"minimized"`
	Collapsed  int `json:"collapsed"`
	BytesSaved int `json:"bytes_saved"`
	// Errors lists entries that could not be processed; errored entries
	// stay in the corpus untouched.
	Errors []string `json:"errors,omitempty"`
	// Elapsed is wall-clock compaction time.
	Elapsed time.Duration `json:"elapsed"`
}

// OK reports a clean pass.
func (r *CompactReport) OK() bool { return len(r.Errors) == 0 }

// Compact re-minimizes every corpus entry with the current shrinker and
// folds newly-equal dedup keys together, promote-first so no finding is
// lost mid-compaction. The returned error is a context or corpus-I/O
// failure; per-entry problems land in CompactReport.Errors.
//
// Each entry is read, re-checked, and shrunk on a pool of cfg.Workers
// goroutines; none of that touches the corpus. One fold then applies the
// results in entry order — the dedup check, Put, Remove, report, log, and
// events — so the compacted corpus and everything reported are the same
// at any pool size. On cancellation the entries folded so far stay
// compacted and the rest untouched.
func Compact(ctx context.Context, cfg CompactConfig) (*CompactReport, error) {
	trials, max := replayBudget(cfg.NITrials, cfg.NITrialsMax)
	log := cfg.Log
	if log == nil {
		log = io.Discard
	}
	rep := &CompactReport{CorpusDir: cfg.CorpusDir}
	start := time.Now()
	defer func() { rep.Elapsed = time.Since(start) }()
	// Pre-register the collapse series so a no-op pass still leaves them
	// (at zero) in the persisted snapshot, then add the final tallies on
	// the way out — the report is built incrementally, so one deferred
	// add covers every exit path.
	met := cfg.Metrics
	met.Counter("compact_entries_total")
	met.Counter("compact_minimized_total")
	met.Counter("compact_collapsed_total")
	met.Counter("compact_bytes_saved_total")
	met.Counter("compact_skipped_total")
	defer func() {
		met.Counter("compact_entries_total").Add(int64(rep.Total))
		met.Counter("compact_minimized_total").Add(int64(rep.Minimized))
		met.Counter("compact_collapsed_total").Add(int64(rep.Collapsed))
		met.Counter("compact_bytes_saved_total").Add(int64(rep.BytesSaved))
		met.Counter("compact_skipped_total").Add(int64(rep.Skipped))
	}()

	corp := cfg.Corpus
	if corp == nil {
		dir := cfg.CorpusDir
		if dir == "" {
			dir = "."
		}
		var err error
		if corp, err = corpus.OpenSink(dir, cfg.Events); err != nil {
			return rep, fmt.Errorf("campaign: compact: %w", err)
		}
	}

	// Snapshot the entry list first: collapse and rewrite both mutate the
	// handle's index, which must not happen under its own iterator.
	var entries []*corpus.Entry
	for e, err := range corp.Entries() {
		if err != nil {
			rep.Skipped++
			continue
		}
		entries = append(entries, e)
	}
	total := len(entries)
	work := func(i int) compacted { return compactOne(ctx, entries[i], trials, max) }
	fold := func(i int, r compacted) {
		e := entries[i]
		entries[i] = nil
		if r.unread {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", e.Path, r.err))
			return
		}
		rep.Total++
		if r.err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", e.Path, r.err))
			return
		}
		cfg.Events.Emit(events.Event{
			Kind: events.KindJobDone, Op: "compact",
			Index: int64(i), Class: r.got, Key: e.Meta.Key, Path: e.Path,
		})
		switch {
		case r.got != string(e.Meta.Class):
			rep.Skipped++
		case r.key == "":
			// already minimal (or unshrinkable) — leave as is
		case corp.Has(r.key):
			// The minimized form is an existing finding: the two entries
			// were one defect all along. The survivor shares the dedup
			// key's class, so no verdict class is lost.
			if err := corp.Remove(e); err != nil {
				rep.Errors = append(rep.Errors, fmt.Sprintf("%s: remove: %v", e.Path, err))
				return
			}
			rep.Collapsed++
			rep.BytesSaved += r.srcLen
			fmt.Fprintf(log, "collapsed: %s onto %.12s (%d bytes freed)\n", e.Path, r.key, r.srcLen)
		default:
			nm := e.Meta
			nm.Key = r.key
			nm.Bytes = len(r.min)
			nm.Minimized = true
			path, err := corp.Put(nm, r.min)
			if err != nil {
				rep.Errors = append(rep.Errors, fmt.Sprintf("%s: rewrite: %v", e.Path, err))
				return
			}
			if err := corp.Remove(e); err != nil {
				rep.Errors = append(rep.Errors, fmt.Sprintf("%s: remove: %v", e.Path, err))
				return
			}
			rep.Minimized++
			rep.BytesSaved += r.srcLen - len(r.min)
			fmt.Fprintf(log, "minimized: %s -> %s (%d -> %d bytes)\n", e.Path, path, r.srcLen, len(r.min))
		}
	}
	if err := foldInOrder(ctx, total, cfg.Workers, work, fold); err != nil {
		return rep, err
	}
	if err := corp.SaveIndex(); err != nil {
		fmt.Fprintf(log, "compact: %v (index rebuilt on next open)\n", err)
	}
	cfg.Events.Emit(events.Event{
		Kind: events.KindProgress, Op: "compact", Done: total, Total: total,
	})
	sort.Strings(rep.Errors)
	return rep, nil
}

// compacted is one entry's share of a compaction that needs no corpus
// access: its replayed class and, when it shrank, the smaller form.
type compacted struct {
	unread bool   // the source could not be read (err says why)
	err    error  // read or replay failure
	got    string // the replayed class
	srcLen int
	// min is the strictly smaller form that replays to the recorded
	// class, and key its dedup key; both "" when the entry did not shrink.
	min, key string
}

// compactOne reads and re-checks e and, when it still reproduces its
// recorded class, re-minimizes it under its own recorded replay budget: a
// candidate is kept iff it replays to the recorded class, so the
// compacted entry replays clean by construction.
func compactOne(ctx context.Context, e *corpus.Entry, trials, max int) compacted {
	src, err := e.Source()
	if err != nil {
		return compacted{unread: true, err: err}
	}
	m := e.Meta
	rp := newReplayer(ctx, m, trials, max)
	got, _, err := rp.replay(src, nil, false)
	r := compacted{err: err, got: got, srcLen: len(src)}
	if err != nil || got != string(m.Class) {
		return r
	}
	keep := func(cand string, prog *ast.Program) bool {
		if cand == src {
			return true // replayed to its class just above
		}
		if ctx.Err() != nil {
			return false // cancelled: finish the sweep without replaying
		}
		g, _, err := rp.replay(cand, prog, false)
		return err == nil && g == string(m.Class)
	}
	name := strings.TrimSuffix(e.Name, ".json") + ".p4"
	if res, err := shrink.MinimizeParsed(name, src, keep); err == nil && len(res.Source) < len(src) {
		r.min, r.key = res.Source, corpus.DedupKey(m.Class, res.Source)
	}
	return r
}

// FormatCompactReport renders a compaction's outcome.
func FormatCompactReport(r *CompactReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "corpus compact: %s, %d findings examined, %v\n",
		r.CorpusDir, r.Total, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "  %d minimized, %d collapsed, %d bytes saved, %d skipped\n",
		r.Minimized, r.Collapsed, r.BytesSaved, r.Skipped)
	for _, e := range r.Errors {
		fmt.Fprintf(&b, "\nERROR %s\n", e)
	}
	switch {
	case !r.OK():
		fmt.Fprintf(&b, "FAIL: %d entries could not be compacted (see above)\n", len(r.Errors))
	case r.Minimized+r.Collapsed == 0:
		b.WriteString("PASS: corpus already compact\n")
	default:
		fmt.Fprintf(&b, "PASS: %d entries rewritten smaller, %d collapsed onto existing findings\n",
			r.Minimized, r.Collapsed)
	}
	return b.String()
}
