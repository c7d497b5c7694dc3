package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/basecheck"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/parser"
	"repro/internal/progs"
	"repro/internal/resolve"
)

// checkJob is one program a p4bid user checks: the paper's case-study
// variants (Table 1), synthetic programs of growing size, and programs
// over taller chain lattices.
type checkJob struct {
	name string
	src  string
	lat  lattice.Lattice
	base bool // unannotated: check with the baseline checker
	// want is the known answer: "accepted", "base-accepted", or
	// "rejected:<rules>" with the rules the IFC checker cites, in order.
	want string
}

// caseStudyRules is the paper's case-study matrix for the buggy
// variants: each is rejected citing these typing rules.
var caseStudyRules = map[string]string{
	"D2R":      "T-Assign",
	"App":      "T-TblDecl",
	"Lattice":  "T-Assign,T-TblDecl,T-TblCall",
	"Topology": "T-Assign",
	"Cache":    "T-TblDecl",
	"NetChain": "T-Assign",
	"Stateful": "T-Index",
}

var (
	synthTables  = []int{1, 4, 16, 64}
	chainHeights = []int{4, 16, 32}
)

// checkJobs builds the typecheck workload's program set.
func checkJobs() []checkJob {
	var jobs []checkJob
	for _, p := range progs.All() {
		lat := p.Lattice()
		jobs = append(jobs,
			checkJob{p.FileName(progs.Buggy), p.Source(progs.Buggy), lat, false, "rejected:" + caseStudyRules[p.Name]},
			checkJob{p.FileName(progs.Fixed), p.Source(progs.Fixed), lat, false, "accepted"},
			checkJob{p.FileName(progs.Unannotated), p.Source(progs.Unannotated), lat, true, "base-accepted"})
	}
	for _, n := range synthTables {
		jobs = append(jobs, checkJob{fmt.Sprintf("synth-%d.p4", n), gen.Synth(n, 4, 8), lattice.TwoPoint(), false, "accepted"})
	}
	for _, h := range chainHeights {
		jobs = append(jobs, checkJob{fmt.Sprintf("chain-%d.p4", h), gen.SynthChainLabels(h), lattice.Chain(h), false, "accepted"})
	}
	return jobs
}

// typecheck is one p4bid call — parse, resolve, then the baseline or the
// IFC checker — returning the verdict in checkJob.want's spelling. With
// a nil tracer nothing is recorded.
func typecheck(t *Tracer, j *checkJob) string {
	t.add("parser.bytes", float64(len(j.src)))
	prog, err := call2(t, "parser", "parser.Parse", func() (*ast.Program, error) { return parser.Parse(j.name, j.src) })
	if err != nil {
		return "parse-error"
	}
	if err := call(t, "resolve", "resolve.CollectTypeDecls", func() error {
		var diags diag.List
		resolve.New(j.lat, &diags).CollectTypeDecls(prog)
		return diags.Err()
	}); err != nil {
		return "resolve-error"
	}
	if j.base {
		if call(t, "basecheck", "basecheck.Check", func() *basecheck.Result { return basecheck.Check(prog) }).OK {
			return "base-accepted"
		}
		return "base-rejected"
	}
	res := call(t, "core", "core.Check", func() *core.Result { return core.Check(prog, j.lat) })
	if res.OK {
		return "accepted"
	}
	var rules []string
	for _, d := range res.Diags {
		if d.Rule != "" && !slices.Contains(rules, d.Rule) {
			rules = append(rules, d.Rule)
		}
	}
	return "rejected:" + strings.Join(rules, ",")
}

// warmupPasses is how many untimed passes set-up runs.
const warmupPasses = 40

// tcSetup builds the program set and runs warm-up passes over it.
func tcSetup(m *measurement) []checkJob {
	t0 := time.Now()
	jobs := checkJobs()
	for range warmupPasses {
		for i := range jobs {
			typecheck(nil, &jobs[i])
		}
	}
	m.setup = append(m.setup, time.Since(t0))
	return jobs
}

// runTypecheck is a closed loop with one caller: passes over the program
// set, each in an order drawn from the seed, every call timed and its
// verdict checked against the known answer. It returns the verdict
// histogram of the first pass, whose order a traced run repeats.
func runTypecheck(env *env, budget time.Duration, m *measurement) map[string]int {
	var jobs []checkJob
	for i := 0; i < setupReps; i++ {
		jobs = tcSetup(m)
	}
	rng := rand.New(rand.NewSource(env.seed))
	var first map[string]int
	var chunk []time.Duration // times to verdict since the last full group
	start := time.Now()
	for pass := 0; pass < minBatches || time.Since(start) < budget; pass++ {
		hist := map[string]int{}
		wall, cpu, _ := m.timed(func() error {
			for _, i := range rng.Perm(len(jobs)) {
				j := &jobs[i]
				t0 := time.Now()
				got := typecheck(nil, j)
				chunk = append(chunk, time.Since(t0))
				hist[got]++
				if got != j.want {
					m.failed++
					m.fail("typecheck %s: got %s, want %s", j.name, got, j.want)
				}
			}
			return nil
		})
		m.interval(len(jobs), wall, cpu)
		m.units += len(jobs)
		m.attempted += len(jobs)
		if first == nil {
			first = hist
		}
		if len(chunk) >= verdictsPerGroup {
			m.addVerdicts(chunk)
			chunk = nil
		}
	}
	if n := len(m.verdicts); n > 0 && len(chunk) > 0 {
		m.verdicts[n-1] = append(m.verdicts[n-1], millis(chunk)...)
	} else if len(chunk) > 0 {
		m.addVerdicts(chunk)
	}
	return first
}

// traceTypecheck repeats the first pass's calls as spans, pass after pass
// for budget (at least one pass). It returns the first traced pass's
// verdict histogram, the calls made, and their wall time.
func traceTypecheck(t *Tracer, env *env, budget time.Duration) (map[string]int, int, time.Duration) {
	jobs := checkJobs()
	order := rand.New(rand.NewSource(env.seed)).Perm(len(jobs))
	var first map[string]int
	calls := 0
	start := time.Now()
	for pass := 0; pass < 1 || time.Since(start) < budget; pass++ {
		hist := map[string]int{}
		for _, i := range order {
			t.setJob(int64(calls), false)
			hist[typecheck(t, &jobs[i])]++
			calls++
		}
		if first == nil {
			first = hist
		}
	}
	return first, calls, time.Since(start)
}
