// Replay turns the corpus into a regression suite: every persisted
// finding is re-checked against the current checker stack, and any
// verdict drift — a finding that no longer classifies the way its
// metadata records — fails the replay. Drift cuts both ways and both are
// worth a red light: a rejected-clean entry that starts witnessing means
// checker or interpreter behavior changed; a parser-disagreement entry
// that starts roundtripping means the frontend defect it documents was
// fixed and the entry should be retired (or promoted to a test).
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
	"repro/internal/difftest"
	"repro/internal/events"
	"repro/internal/lattice"
	"repro/internal/parser"
	"repro/internal/pipeline"
)

// ReplayConfig configures a corpus replay.
type ReplayConfig struct {
	// CorpusDir is the corpus to replay. A missing or empty findings
	// directory replays zero findings and passes — the first nightly run
	// has nothing to regress against.
	CorpusDir string
	// Corpus is an already-open handle over CorpusDir; when set, the
	// replay reads through it (sharing its source and parse caches)
	// instead of opening the directory again. Session threads one handle
	// through every operation this way.
	Corpus *corpus.Corpus
	// NITrials and NITrialsMax are the NI budget for findings whose
	// metadata predates budget recording (defaults 4 and 32, the campaign
	// defaults). Findings recorded with their budget replay under it.
	NITrials    int
	NITrialsMax int
	// Workers bounds the pool that re-checks entries (<= 0 =
	// GOMAXPROCS). The report, log, and events do not depend on it.
	Workers int
	// Log receives one line per drifted finding (nil = discard).
	Log io.Writer
	// Events receives the replay's structured event stream (job-done per
	// replayed finding, drift per mismatch); nil discards.
	Events events.Sink
}

// Drift is one finding whose replayed classification no longer matches
// the recorded one.
type Drift struct {
	// Path is the finding's program file.
	Path string
	// Recorded is the persisted class; Got is the class (or verdict
	// description) the current stack assigns; Detail explains Got.
	Recorded Class
	Got      string
	Detail   string
}

// ReplayReport is a replay's outcome.
type ReplayReport struct {
	// Total counts findings replayed; ByClass splits them by recorded
	// class. Reproduced counts findings whose replayed class matched the
	// recorded one — Total minus drifts minus entries that errored after
	// being counted.
	Total      int
	Reproduced int
	ByClass    map[Class]int
	// Drifts holds every verdict drift; Errors every finding that could
	// not be replayed at all (unreadable pair, unresolvable lattice).
	Drifts []Drift
	Errors []string
	// Elapsed is wall-clock replay time; CorpusDir echoes the corpus.
	Elapsed   time.Duration
	CorpusDir string
}

// OK reports a clean replay: every finding reproduced its recorded class.
func (r *ReplayReport) OK() bool { return len(r.Drifts) == 0 && len(r.Errors) == 0 }

// Replay re-checks every persisted finding under dir against the current
// checker stack. The returned error is a context or corpus-I/O failure;
// drift is reported in the ReplayReport, not as an error.
//
// Entries are re-checked on a pool of cfg.Workers goroutines; one fold
// builds the report, writes the log, and emits the events in entry order,
// so all three are the same at any pool size.
func Replay(ctx context.Context, cfg ReplayConfig) (*ReplayReport, error) {
	trials, max := replayBudget(cfg.NITrials, cfg.NITrialsMax)
	log := cfg.Log
	if log == nil {
		log = io.Discard
	}
	rep := &ReplayReport{ByClass: map[Class]int{}, CorpusDir: cfg.CorpusDir}
	start := time.Now()
	defer func() { rep.Elapsed = time.Since(start) }()

	c := cfg.Corpus
	if c == nil {
		dir := cfg.CorpusDir
		if dir == "" {
			dir = "."
		}
		var err error
		if c, err = corpus.OpenSink(dir, cfg.Events); err != nil {
			return rep, fmt.Errorf("campaign: replay: %w", err)
		}
	}
	var entries []*corpus.Entry
	for e := range c.Entries() {
		entries = append(entries, e)
	}
	type replayed struct {
		got, detail string
		err         error // unreadable source or unresolvable lattice
	}
	work := func(i int) (r replayed) {
		e := entries[i]
		if e.Err != nil {
			return
		}
		src, err := e.Source()
		if err != nil {
			r.err = err
			return
		}
		r.got, r.detail, r.err = newReplayer(ctx, e.Meta, trials, max).replay(src, nil, true)
		return
	}
	var seq int64
	fold := func(i int, r replayed) {
		e := entries[i]
		entries[i] = nil
		if e.Err != nil {
			rep.Errors = append(rep.Errors, e.Err.Error())
			return
		}
		rep.Total++
		rep.ByClass[e.Meta.Class]++
		if r.err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", e.Path, r.err))
			return
		}
		cfg.Events.Emit(events.Event{
			Kind: events.KindJobDone, Op: "replay",
			Index: seq, Class: r.got, Key: e.Meta.Key, Path: e.Path,
		})
		seq++
		if r.got != string(e.Meta.Class) {
			rep.Drifts = append(rep.Drifts, Drift{Path: e.Path, Recorded: e.Meta.Class, Got: r.got, Detail: r.detail})
			cfg.Events.Emit(events.Event{
				Kind: events.KindDrift, Op: "replay",
				Class: string(e.Meta.Class), Detail: fmt.Sprintf("now %s: %s", r.got, r.detail),
				Key: e.Meta.Key, Path: e.Path,
			})
			fmt.Fprintf(log, "drift: %s recorded %s, now %s (%s)\n", e.Path, e.Meta.Class, r.got, r.detail)
		} else {
			rep.Reproduced++
		}
	}
	if err := foldInOrder(ctx, len(entries), cfg.Workers, work, fold); err != nil {
		return rep, err
	}
	cfg.Events.Emit(events.Event{
		Kind: events.KindProgress, Op: "replay", Done: rep.Total, Total: rep.Total,
	})
	return rep, nil
}

// replayBudget resolves the NI budget for entries whose metadata predates
// budget recording: the campaign defaults unless configured.
func replayBudget(trials, max int) (int, int) {
	if trials <= 0 {
		trials = 4
	}
	if max <= 0 {
		max = 8 * trials
	}
	return trials, max
}

// replayer re-classifies one finding's program, or a candidate derived
// from it, under the finding's recorded NI seed, budget, and oracle. It
// belongs to one goroutine; the entry's lattice is resolved on first need
// and reused for every later candidate.
type replayer struct {
	ctx    context.Context
	m      Meta
	opts   pipeline.Options
	lat    lattice.Lattice
	latErr error
	latSet bool
}

func newReplayer(ctx context.Context, m Meta, trials, max int) *replayer {
	if m.NITrials > 0 {
		trials = m.NITrials
	}
	if m.NITrialsMax > 0 {
		max = m.NITrialsMax
	}
	return &replayer{ctx: ctx, m: m, opts: pipeline.Options{
		Workers:     1,
		NI:          pipeline.NIAll,
		NITrials:    trials,
		NITrialsMax: max,
		NISeed:      m.NISeed,
		// Replay under the oracle the finding was classified with: the
		// proved-imprecise/secret-exhaustive/under-tested classes only
		// reproduce under the exhaustive oracle at the recorded budget.
		// Entries predating the oracle split record "" and replay under
		// the default, unchanged.
		Oracle:        m.NIOracle,
		ExhaustBudget: m.ExhaustBudget,
		ExhaustProbes: m.ExhaustProbes,
	}}
}

// replay re-classifies src; prog, when non-nil, is src already parsed and
// is handed over to the pipeline. The returned string is the corpus class
// the current stack assigns, or a description when the result has no
// corpus class ("sound", "rejected-witnessed", "roundtrip-clean", ...).
// The detail explaining it is formatted only when withDetail is set.
func (r *replayer) replay(src string, prog *ast.Program, withDetail bool) (string, string, error) {
	// A persisted program the frontend no longer parses drifts to
	// "unparseable" uniformly, whatever its recorded class. Verdict
	// classes used to skip this check and fall into the pipeline, where
	// the parse failure resurfaced as a generator-bug verdict — so an
	// unparseable rejected-clean entry drifted to the wrong class and was
	// then double-reported by retire's fingerprint pass. Generator-bug
	// entries are exempt: an unparseable program can be exactly the
	// recorded defect, and the pipeline reproduces it as such.
	if prog == nil && r.m.Class != ClassGeneratorBug {
		var err error
		if prog, err = parser.Parse("replay.p4", src); err != nil {
			return "unparseable", err.Error(), nil
		}
	}
	if r.m.Class == ClassParserDisagreement || r.m.Class == ClassRoundtripClean {
		if detail, bad := roundtripDisagreement("replay.p4", prog); bad {
			return string(ClassParserDisagreement), detail, nil
		}
		return string(ClassRoundtripClean), "parse → print → reparse is now a fixed point", nil
	}

	if !r.latSet {
		r.lat, r.latErr = r.m.Gen.ResolveLattice()
		r.latSet = true
	}
	if r.latErr != nil {
		return "", "", r.latErr
	}
	sum, err := pipeline.Run(r.ctx, []pipeline.Job{{Name: "replay.p4", Source: src, Prog: prog, Lat: r.lat}}, r.opts)
	if err != nil {
		return "", "", err
	}
	if len(sum.Results) != 1 {
		return "", "", fmt.Errorf("replay produced %d results", len(sum.Results))
	}
	res := &sum.Results[0]
	v := difftest.VerdictOf(res)
	detail := ""
	if withDetail {
		detail = difftest.Detail(v, res)
	}
	if class, ok := classOf(v); ok {
		return string(class), detail, nil
	}
	switch v {
	case difftest.Sound:
		return string(ClassSound), "IFC-accepted and NI-clean", nil
	case difftest.RejectedWitnessed:
		return string(ClassRejectedWitnessed), detail, nil
	}
	return v.String(), detail, nil
}

// FormatReplayReport renders a replay outcome.
func FormatReplayReport(r *ReplayReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "corpus replay: %s, %d findings, %v\n",
		r.CorpusDir, r.Total, r.Elapsed.Round(time.Millisecond))
	classes := make([]string, 0, len(r.ByClass))
	for c := range r.ByClass {
		classes = append(classes, string(c))
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(&b, "  %-24s %6d\n", c, r.ByClass[Class(c)])
	}
	for _, d := range r.Drifts {
		fmt.Fprintf(&b, "\nDRIFT %s\n  recorded %s, now %s\n  %s\n", d.Path, d.Recorded, d.Got, d.Detail)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(&b, "\nERROR %s\n", e)
	}
	switch {
	case r.OK():
		fmt.Fprintf(&b, "PASS: all %d persisted findings reproduce their recorded classes\n", r.Total)
	default:
		fmt.Fprintf(&b, "FAIL: %d drifted, %d unreplayable (see above)\n", len(r.Drifts), len(r.Errors))
	}
	return b.String()
}
