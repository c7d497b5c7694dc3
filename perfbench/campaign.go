package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/internal/ast"
	"repro/internal/campaign"
	"repro/internal/corpus"
	"repro/internal/difftest"
	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/mutate"
	"repro/internal/parser"
	"repro/internal/pipeline"
	"repro/internal/shrink"
)

// campaignWorkload is a closed batch loop: each batch runs batch
// programs at a pinned window's seed, either through the one-shot
// harness the CI gate runs (Session.DiffFuzz, no corpus) or through the
// campaign engine on a fresh corpus (Session.Campaign).
type campaignWorkload struct {
	name    string
	batch   int   // programs per batch
	warmup  int   // programs in each set-up's warm-up batch
	base    int64 // session seed of window 0; window w starts at base + w*batch
	windows int   // pinned windows
	// passes, when set, makes every run cover all windows that many
	// times, each pass in an order drawn from the seed, instead of
	// drawing windows for as long as the budget lasts: nightly's
	// per-window enumeration cost varies more between windows than a run
	// can average out, and one pass's times to verdict vary with how the
	// workers' jobs interleave, by more than a single pass can average
	// out.
	passes int
	// gate runs Session.DiffFuzz, as p4fuzz does without -corpus-dir or
	// -minimize: generate every program up front, analyze them in the
	// pool, classify once it drains. No roundtrip, cap, shrink, or corpus.
	gate   bool
	gen    gen.Config
	oracle string
	mutate bool // seed pool = a copy of the regression corpus, half the jobs mutants
}

var (
	// campaignWL is the CI pull-request gate: p4fuzz -n 2000 -trials 4
	// -trials-max 32 at the default generator and lattice.
	campaignWL = &campaignWorkload{
		name: "campaign", batch: 2000, warmup: 200, base: 1_000_000, windows: 64, gate: true,
		gen: gen.DefaultConfig(),
	}
	nightlyWL = &campaignWorkload{
		name: "nightly", batch: 300, warmup: 8, base: 2_000_000, windows: 2, passes: 2,
		gen:    func() gen.Config { g := gen.DefaultConfig(); g.NumFields = 1; return g }(),
		oracle: pipeline.OracleExhaustive, mutate: true,
	}
)

const (
	niTrials    = 4
	niTrialsMax = 32
	perClassCap = 25 // the campaign default
	mutateFrac  = 0.5
)

func (w *campaignWorkload) seedOf(window int) int64 { return w.base + int64(window)*int64(w.batch) }

// options is the Session configuration the workload runs under; dir is
// the corpus, unused by the gate.
func (w *campaignWorkload) options(dir string, seed int64) []repro.SessionOption {
	opts := []repro.SessionOption{
		repro.WithSeed(seed), repro.WithWorkers(runtime.NumCPU()),
		repro.WithGenConfig(w.gen), repro.WithNIBudget(niTrials, niTrialsMax),
	}
	if w.gate {
		return opts
	}
	opts = append(opts, repro.WithCorpus(dir), repro.WithMinimize(), repro.WithEventBuffer(eventBuffer))
	if w.oracle != "" {
		opts = append(opts, repro.WithNIOracle(w.oracle))
	}
	if w.mutate {
		opts = append(opts, repro.WithMutation(mutateFrac))
	}
	return opts
}

// prepare makes a fresh corpus directory: empty, or a copy of the
// regression corpus for the mutating workload.
func (w *campaignWorkload) prepare(env *env) (string, error) {
	dir, err := os.MkdirTemp(env.work, w.name+"-")
	if err != nil {
		return "", err
	}
	if w.mutate {
		if err := copyFindings(env.seedCorpus, dir); err != nil {
			return "", err
		}
	}
	return dir, nil
}

// batchResult is one untraced batch.
type batchResult struct {
	window   int
	wall     time.Duration
	out      campaignPin // the outputs its pin fixes
	ok       bool        // the report's OK()
	analyzed int
	keys     []string // finding keys (gate: index and verdict)
	// collected counts the findings the campaign engine admitted or
	// capped; latencies are its jobs' times to verdict.
	collected int
	latencies []time.Duration
}

// untimed runs f outside the timed work.
func untimed(f func() error) error { return f() }

// execute runs one batch of n programs at window's seed; timed wraps the
// one call the batch's wall time covers.
func (w *campaignWorkload) execute(ctx context.Context, env *env, window, n int, timed func(func() error) error) (batchResult, error) {
	b := batchResult{window: window}
	if w.gate {
		s, err := repro.NewSession(w.options("", w.seedOf(window))...)
		if err != nil {
			return b, err
		}
		defer s.Close()
		var rep *repro.FuzzReport
		if err := timed(func() (err error) { rep, err = s.DiffFuzz(ctx, n); return }); err != nil {
			return b, fmt.Errorf("%s window %d: %w", w.name, window, err)
		}
		b.out = campaignPin{Counts: slices.Clone(rep.Counts[:]), Trials: rep.TrialsRun}
		b.ok, b.analyzed = rep.OK(), rep.Analyzed
		for _, f := range rep.Findings {
			b.keys = append(b.keys, fmt.Sprintf("%d:%v", f.Index, f.Verdict))
		}
		return b, nil
	}
	dir, err := w.prepare(env)
	if err != nil {
		return b, err
	}
	defer os.RemoveAll(dir)
	s, err := repro.NewSession(w.options(dir, w.seedOf(window))...)
	if err != nil {
		return b, err
	}
	l := listen(s)
	var rep *repro.CampaignReport
	err = timed(func() (err error) { rep, err = s.Campaign(ctx, n); return })
	if lerr := l.close(s); lerr != nil && err == nil {
		err = lerr
	}
	if err != nil {
		return b, fmt.Errorf("%s window %d: %w", w.name, window, err)
	}
	b.out = pinOf(rep)
	b.ok, b.analyzed = rep.OK(), rep.Analyzed
	b.collected = rep.CappedFindings + rep.NewFindings + rep.DupFindings + rep.KnownFindings
	for _, f := range rep.Findings {
		b.keys = append(b.keys, f.Key)
	}
	b.latencies = l.latencies("campaign", runtime.NumCPU())
	return b, nil
}

// runBatch runs one timed batch at window's seed and checks it against
// the window's pin.
func (w *campaignWorkload) runBatch(ctx context.Context, env *env, window int, m *measurement) (batchResult, error) {
	var wall, cpu time.Duration
	b, err := w.execute(ctx, env, window, w.batch, func(f func() error) (err error) {
		wall, cpu, err = m.timed(f)
		return err
	})
	if err != nil {
		return b, err
	}
	b.wall = wall
	m.units += b.analyzed
	m.interval(b.analyzed, wall, cpu)
	if w.gate {
		// DiffFuzz classifies once the pool drains, so every program's
		// verdict arrives with the report: a batch wall time after the start.
		m.addVerdicts(slices.Repeat([]time.Duration{wall}, b.analyzed))
	} else {
		m.addVerdicts(b.latencies)
	}
	w.check(env.pins, b, m)
	return b, nil
}

// check compares one batch's outputs with the window's pin and counts
// its programs: all of them failed if a check fails, else those with a
// defect verdict or a parser disagreement, or missing from the report.
func (w *campaignWorkload) check(p *pinFile, b batchResult, m *measurement) {
	bad := len(m.problems)
	switch pin := p.campaign(w.name, b.window); {
	case pin == nil:
		m.fail("%s window %d: no pin", w.name, b.window)
	case !b.ok || b.analyzed != w.batch:
		m.fail("%s window %d: report OK=%v, analyzed %d of %d", w.name, b.window, b.ok, b.analyzed, w.batch)
	case !b.out.sameOutputs(pin):
		m.fail("%s window %d: outputs %v differ from pinned %v", w.name, b.window, b.out, *pin)
	}
	m.attempted += w.batch
	if len(m.problems) > bad {
		m.failed += w.batch
		return
	}
	c := b.out.Counts
	m.failed += c[difftest.SoundnessViolation] + c[difftest.GeneratorBug] +
		c[difftest.RuntimeError] + b.out.Parser + max(0, w.batch-b.analyzed)
}

// setup runs one warm-up batch at window's seed, with its session (and
// corpus) made fresh: the work a run does before its first timed batch.
func (w *campaignWorkload) setup(ctx context.Context, env *env, window int, m *measurement) error {
	t0 := time.Now()
	b, err := w.execute(ctx, env, window, w.warmup, untimed)
	if err != nil {
		return err
	}
	m.setup = append(m.setup, time.Since(t0))
	if !b.ok || b.analyzed != w.warmup {
		m.fail("%s warm-up at window %d: not OK", w.name, window)
	}
	return nil
}

// run measures the workload for budget and returns its batches in order.
func (w *campaignWorkload) run(ctx context.Context, env *env, budget time.Duration, m *measurement) ([]batchResult, error) {
	rng := rand.New(rand.NewSource(env.seed))
	var order []int
	for range w.passes {
		order = append(order, rng.Perm(w.windows)...)
	}
	window := func(i int) int {
		if w.passes > 0 {
			return order[i]
		}
		return rng.Intn(w.windows)
	}
	more := func(done int, start time.Time) bool {
		if w.passes > 0 {
			return done < len(order)
		}
		return done < minBatches || time.Since(start) < budget
	}
	first := window(0)
	for i := 0; i < setupReps; i++ {
		// The warm-up runs the same programs on every run, so set-up
		// time varies only with the machine.
		if err := w.setup(ctx, env, 0, m); err != nil {
			return nil, err
		}
	}
	var out []batchResult
	start := time.Now()
	for i, win := 0, first; more(i, start); i++ {
		if i > 0 {
			win = window(i)
		}
		b, err := w.runBatch(ctx, env, win, m)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// findingKeyHash is a 32-bit FNV hash of a batch sequence's sorted
// finding keys. On the campaign engine at more than one worker the set
// varies between runs of one seed: which findings the per-class cap
// admits for shrinking depends on completion order. The gate's findings
// are a function of the program index.
func findingKeyHash(bs []batchResult) float64 {
	h := fnv.New32a()
	for _, b := range bs {
		keys := slices.Clone(b.keys)
		sort.Strings(keys)
		fmt.Fprintf(h, "%d:%s;", b.window, strings.Join(keys, ","))
	}
	return float64(h.Sum32())
}

// copyFindings copies a corpus's finding pairs (not its derived index or
// telemetry) into dir/findings.
func copyFindings(from, to string) error {
	src := filepath.Join(from, "findings")
	ents, err := os.ReadDir(src)
	if err != nil {
		return fmt.Errorf("seed corpus: %w", err)
	}
	dst := filepath.Join(to, "findings")
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range ents {
		n := e.Name()
		if n == "index.json" || !(strings.HasSuffix(n, ".json") || strings.HasSuffix(n, ".p4")) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, n))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, n), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// tracedStats is what a traced campaign batch reports besides its spans.
type tracedStats struct {
	hist     [difftest.NumVerdicts]int
	parser   int // parser disagreements
	capped   int
	mutants  int
	fallback int // mutation attempts that fell back to generation
	trials   int64
	wall     time.Duration // excluding the corpus preparation
}

// trace repeats one batch on one goroutine with every module call a
// span.
func (w *campaignWorkload) trace(t *Tracer, env *env, window int) (tracedStats, error) {
	if w.gate {
		return w.traceGate(t, window)
	}
	return w.traceBatch(t, env, window)
}

// traceGate repeats one gate batch the way difftest.Run runs it:
// generate every program up front, analyze each, then classify them in
// index order.
func (w *campaignWorkload) traceGate(t *Tracer, window int) (tracedStats, error) {
	var st tracedStats
	start := time.Now()
	seed := w.seedOf(window)
	lat, err := w.gen.ResolveLattice()
	if err != nil {
		return st, err
	}
	srcs := make([]string, w.batch)
	t.setPhase(phaseProducer)
	for i := range srcs {
		t.setJob(int64(i), false)
		rng := rand.New(rand.NewSource(seed + int64(i)))
		srcs[i] = call(t, "gen", "gen.Random", func() string { return gen.Random(rng, w.gen) })
	}
	results := make([]pipeline.JobResult, len(srcs))
	t.setPhase(phaseWorker)
	for i, src := range srcs {
		t.setJob(int64(i), false)
		nc := niConfig{trials: niTrials, max: niTrialsMax, seed: seed + int64(i)}
		results[i] = analyze(t, fmt.Sprintf("fuzz-%d.p4", i), src, lat, nc)
		st.trials += int64(results[i].NITrialsRun)
	}
	t.setPhase(phaseConsumer)
	for i := range results {
		t.setJob(int64(i), false)
		v, _ := classify(t, &results[i])
		st.hist[v]++
	}
	t.setJob(-1, false)
	t.setPhase("")
	st.wall = time.Since(start)
	return st, nil
}

// traceBatch repeats one campaign-engine batch's per-program work,
// calling the modules in the order the engine does: produce
// (gen or mutate), analyze, classify and roundtrip, then finalize each
// admitted finding (shrink, dedup, Put) and save the index.
func (w *campaignWorkload) traceBatch(t *Tracer, env *env, window int) (tracedStats, error) {
	var st tracedStats
	dir, err := w.prepare(env)
	if err != nil {
		return st, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	seed := w.seedOf(window)
	lat, err := w.gen.ResolveLattice()
	if err != nil {
		return st, err
	}
	t.setJob(-1, false)
	t.setPhase(phaseFinalize)
	corp, err := call2(t, "corpus", "corpus.Open", func() (*corpus.Corpus, error) { return corpus.Open(dir) })
	if err != nil {
		return st, err
	}
	var pool []string
	if w.mutate {
		t.setPhase(phaseProducer)
		for e, err := range corp.Entries() {
			if err != nil || !sameLattice(e.Meta.Gen.Lattice, w.gen.Lattice) {
				continue
			}
			src, err := call2(t, "corpus", "corpus.Entry.Source", e.Source)
			if err == nil {
				pool = append(pool, src)
			}
		}
	}
	nc := niConfig{trials: niTrials, max: niTrialsMax, oracle: w.oracle}
	type pending struct {
		class   campaign.Class
		verdict difftest.Verdict
		name    string
		src     string
		idx     int64
	}
	var todo []pending
	perClass := map[campaign.Class]int{}
	collect := func(p pending) {
		if perClass[p.class] >= perClassCap {
			st.capped++
			return
		}
		perClass[p.class]++
		todo = append(todo, p)
	}
	for idx := int64(0); idx < int64(w.batch); idx++ {
		name := fmt.Sprintf("fuzz-%d.p4", idx)
		t.setPhase(phaseProducer)
		src, approx := w.produce(t, &st, pool, seed+idx, idx)
		t.setJob(idx, approx)
		nc.seed = seed + idx
		t.setPhase(phaseWorker)
		r := analyze(t, name, src, lat, nc)
		st.trials += int64(r.NITrialsRun)
		t.setPhase(phaseConsumer)
		v, _ := classify(t, &r)
		st.hist[v]++
		if c := corpusClass(v); c != "" {
			collect(pending{c, v, name, src, idx})
		}
		if r.Prog != nil && roundtrip(t, name, r.Prog) {
			st.parser++
			collect(pending{campaign.ClassParserDisagreement, v, name, src, idx})
		}
	}
	t.setPhase(phaseFinalize)
	seen := map[string]bool{}
	for _, p := range todo {
		t.setJob(p.idx, false)
		nc.seed = seed + p.idx
		src := p.src
		res, err := call2(t, "shrink", "shrink.Minimize", func() (shrink.Result, error) {
			return shrink.Minimize(p.name, p.src, keepClass(t, p.class, p.verdict, lat, nc))
		})
		t.add("shrink.inputs", 1)
		t.add("shrink.bytes_in", float64(len(p.src)))
		if err == nil {
			src = res.Source
		}
		t.add("shrink.bytes_out", float64(len(src)))
		key := call(t, "corpus", "corpus.DedupKey", func() string { return corpus.DedupKey(p.class, src) })
		t.add("corpus.dedup_checks", 1)
		if seen[key] || call(t, "corpus", "corpus.Has", func() bool { return corp.Has(key) }) {
			seen[key] = true
			t.add("corpus.dedup_hits", 1)
			continue
		}
		seen[key] = true
		_, err = call2(t, "corpus", "corpus.Put", func() (string, error) {
			return corp.Put(corpus.Meta{Class: p.class, Index: p.idx, GenSeed: seed + p.idx, NISeed: seed + p.idx,
				NITrials: niTrials, NITrialsMax: niTrialsMax, NIOracle: w.oracle, Gen: w.gen,
				OriginalBytes: len(p.src), Bytes: len(src), Minimized: len(src) < len(p.src),
				Key: key, FoundAt: time.Now()}, src)
		})
		if err != nil {
			return st, err
		}
	}
	t.setJob(-1, false)
	if err := call(t, "corpus", "corpus.SaveIndex", corp.SaveIndex); err != nil {
		return st, err
	}
	t.setPhase("")
	st.wall = time.Since(start)
	return st, nil
}

// produce makes one job's program the way the engine's producer does:
// everything runs off rand.NewSource(seed); with mutation on, a coin
// picks a mutant of a pool entry, and a failed mutation falls back to
// generation. The engine draws pool entries by weights it does not
// export, so the traced run draws uniformly — those jobs are
// approximate.
func (w *campaignWorkload) produce(t *Tracer, st *tracedStats, pool []string, seed, idx int64) (string, bool) {
	rng := rand.New(rand.NewSource(seed))
	if w.mutate && len(pool) > 0 && rng.Float64() < mutateFrac {
		cfg := mutate.Config{Lattice: w.gen.Lattice}
		parent := pool[rng.Intn(len(pool))]
		if len(pool) > 1 && rng.Intn(4) == 0 {
			cfg.Donor = pool[rng.Intn(len(pool))]
		}
		t.setJob(idx, true)
		res, err := call2(t, "mutate", "mutate.Mutate", func() (mutate.Result, error) {
			return mutate.Mutate(rng, fmt.Sprintf("mut-%d.p4", idx), parent, cfg)
		})
		st.mutants++
		if err == nil {
			return res.Source, true
		}
		st.fallback++
		return call(t, "gen", "gen.Random", func() string { return gen.Random(rng, w.gen) }), true
	}
	t.setJob(idx, false)
	return call(t, "gen", "gen.Random", func() string { return gen.Random(rng, w.gen) }), false
}

// keepClass is the campaign's shrink predicate: a candidate must land in
// the finding's class — a roundtrip failure for parser disagreements,
// the same verdict (under the original job's NI seed) otherwise.
func keepClass(t *Tracer, class campaign.Class, v difftest.Verdict, lat lattice.Lattice, nc niConfig) shrink.Keep {
	return func(cand string) bool {
		t.add("shrink.candidates", 1)
		ok := keepOne(t, class, v, lat, nc, cand)
		if ok {
			t.add("shrink.accepted", 1)
		}
		return ok
	}
}

func keepOne(t *Tracer, class campaign.Class, v difftest.Verdict, lat lattice.Lattice, nc niConfig, cand string) bool {
	if class == campaign.ClassParserDisagreement {
		t.add("parser.bytes", float64(len(cand)))
		prog, err := call2(t, "parser", "parser.Parse", func() (*ast.Program, error) { return parser.Parse("cand.p4", cand) })
		return err == nil && roundtrip(t, "cand.p4", prog)
	}
	r := analyze(t, "cand.p4", cand, lat, nc)
	got, _ := classify(t, &r)
	return got == v
}

// sameLattice compares lattice specs, treating "" as two-point.
func sameLattice(a, b string) bool {
	norm := func(s string) string {
		if s == "" || s == "2pt" {
			return "two-point"
		}
		return s
	}
	return norm(a) == norm(b)
}
