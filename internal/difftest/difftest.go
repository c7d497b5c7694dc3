// Package difftest is a differential soundness-fuzzing harness for the
// P4BID checker. It generates random programs with gen.Random, pushes them
// through the internal/pipeline batch engine, and cross-checks the three
// oracles the repo implements:
//
//   - the IFC checker (internal/core) — the paper's contribution;
//   - the baseline checker (internal/basecheck) — label-insensitive Core P4;
//   - the NI harness (internal/ni) — empirical non-interference testing.
//
// Each generated program lands in exactly one verdict class:
//
//   - Sound: IFC-accepted and no NI trial found interference. This is the
//     mass of evidence for Theorem 4.3.
//   - SoundnessViolation: IFC-accepted but an NI trial produced an
//     interference witness. Any such program falsifies the implementation
//     (checker bug, interpreter bug, or harness bug) and is reported with
//     its source and seed for replay.
//   - RejectedWitnessed: IFC-rejected and the NI harness found a concrete
//     interference witness — evidence the rejection was a true positive.
//   - RejectedClean: IFC-rejected, baseline-accepted, and NI-clean over
//     the trial budget. Precision data: the rejection may be conservative
//     (flow-insensitivity, label creep) or the trials may simply have
//     missed the leak; the ratio against RejectedWitnessed tracks the
//     checker's observed precision. Under the exhaustive oracle this
//     class splits by how much the enumeration covered: ProvedImprecise
//     (the full public × secret space was enumerated clean: the
//     rejection is definitely conservative), SecretExhausted (every
//     secret assignment was clean at each sampled public probe — strong
//     evidence of imprecision, but a leak at an unprobed public state is
//     not excluded), and UnderTested (enumeration was inconclusive:
//     still ambiguous).
//   - GeneratorBug: the program failed to parse, resolve, or base-check.
//     gen.Random promises syntactically and structurally valid output, so
//     anything here is a generator (or frontend) defect.
//   - RuntimeError: an NI run failed with a runtime error; also a defect,
//     since base-well-typed programs must evaluate cleanly.
package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/events"
	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/ni"
	"repro/internal/pipeline"
)

// Verdict classifies one fuzzed program.
type Verdict int

// Verdicts, in severity order: anything above Sound is interesting and
// anything at SoundnessViolation or worse fails the harness.
const (
	Sound Verdict = iota
	RejectedWitnessed
	RejectedClean
	// ProvedImprecise splits the precision class with proof: the
	// exhaustive oracle enumerated the entire public × secret input
	// space at every observer (pipeline.JobResult.NITotal) and certified
	// the rejected program non-interfering — the rejection is definitely
	// conservative, not under-tested.
	ProvedImprecise
	// SecretExhausted is the probe-mode certification: every secret
	// assignment was enumerated clean, but only at sampled public
	// probes, because the public side exceeded the budget. No secret
	// influences the observables at any probed state — strong evidence
	// the rejection is conservative, but not a proof over the whole
	// input space, so it must never be conflated with ProvedImprecise.
	SecretExhausted
	// UnderTested is the residue of the split: the program was
	// rejected, no witness was found, and the exhaustive oracle could not
	// enumerate (width budget, int-typed secrets, ...), so the rejection
	// remains unclassified between imprecision and a missed leak.
	UnderTested
	GeneratorBug
	RuntimeError
	SoundnessViolation
	// NumVerdicts bounds the verdict enum; Report.Counts is indexed by it.
	NumVerdicts
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case Sound:
		return "sound (IFC-accepted, NI-clean)"
	case RejectedWitnessed:
		return "rejected, interference witnessed"
	case RejectedClean:
		return "rejected, NI-clean (conservative?)"
	case ProvedImprecise:
		return "rejected, proved non-interfering (imprecise)"
	case SecretExhausted:
		return "rejected, secret-exhaustive (clean at sampled publics)"
	case UnderTested:
		return "rejected, enumeration inconclusive (under-tested)"
	case GeneratorBug:
		return "generator bug (parse/base failure)"
	case RuntimeError:
		return "runtime error"
	case SoundnessViolation:
		return "SOUNDNESS VIOLATION"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Config configures a fuzzing campaign.
type Config struct {
	// N is the number of programs to generate and cross-check.
	N int
	// Seed seeds program generation; program i is generated from a
	// rand.Rand seeded with Seed + i, so any single program can be
	// regenerated without rerunning the campaign.
	Seed int64
	// Gen configures the program generator (zero = gen.DefaultConfig).
	Gen gen.Config
	// NITrials is the per-program NI trial budget (default 8).
	NITrials int
	// NITrialsMax, when greater than NITrials, enables the pipeline's
	// adaptive NI budget: accepted programs get NITrials trials, rejected
	// programs escalate toward NITrialsMax until a witness appears.
	NITrialsMax int
	// Workers bounds the goroutines that generate the programs and then
	// the pipeline worker pool that analyzes them (<= 0 = GOMAXPROCS).
	Workers int
	// Oracle selects the NI backend (see pipeline.Options.Oracle; "" is
	// the adaptive default). With pipeline.OracleExhaustive the
	// RejectedClean class splits into ProvedImprecise, SecretExhausted,
	// and UnderTested.
	Oracle string
	// ExhaustBudget and ExhaustProbes configure the exhaustive oracle
	// (0 = defaults).
	ExhaustBudget uint64
	ExhaustProbes int
	// Events receives the run's structured event stream: one job-done per
	// classified program (Op "fuzz", Class the verdict), one finding event
	// per reported finding, and a final progress tick. The batch pipeline
	// classifies after the run drains, so events arrive in index order at
	// the end rather than live — Campaign is the streaming form. nil
	// discards.
	Events events.Sink
}

// Finding is one interesting (non-Sound) program, kept with enough context
// to replay: the generation seed regenerates the source exactly.
type Finding struct {
	Index   int
	Seed    int64
	Verdict Verdict
	Source  string
	// Detail is the witness, rule citations, or error text.
	Detail string
}

// Report is the campaign outcome.
type Report struct {
	// Counts has one entry per verdict class.
	Counts [NumVerdicts]int
	// Findings holds every non-Sound, non-RejectedWitnessed,
	// non-RejectedClean program (those two classes are expected in bulk;
	// only their counts are kept) plus every soundness violation.
	Findings []Finding
	// RulesCited counts, per typing rule, how many rejections cited it.
	RulesCited map[string]int
	// Elapsed and Workers describe the run.
	Elapsed time.Duration
	Workers int
	// Seed, N, and Gen echo the campaign configuration; a finding's
	// regen seed only reproduces its program under the same Gen config.
	Seed int64
	N    int
	Gen  gen.Config
	// Analyzed is the number of programs actually analyzed; less than N
	// only when the campaign was cancelled mid-run.
	Analyzed int
	// TrialsRun totals NI trials across programs; under an adaptive
	// budget it shows where the escalation spent its effort.
	TrialsRun int64
	// Aborted reports that the campaign was cancelled before analyzing
	// all N programs; the counts cover only the analyzed prefix.
	Aborted bool
}

// OK reports whether the campaign found no implementation defects: no
// soundness violations, no generator bugs, no runtime errors.
func (r *Report) OK() bool {
	return r.Counts[SoundnessViolation] == 0 &&
		r.Counts[GeneratorBug] == 0 &&
		r.Counts[RuntimeError] == 0
}

// Run executes the campaign. The returned error is only a context or
// configuration failure; oracle disagreements are reported in the Report,
// not as errors.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("difftest: N must be positive, got %d", cfg.N)
	}
	gcfg := cfg.Gen
	if gcfg == (gen.Config{}) {
		gcfg = gen.DefaultConfig()
	}
	lat, err := gcfg.ResolveLattice()
	if err != nil {
		return nil, fmt.Errorf("difftest: %w", err)
	}

	jobs := generate(ctx, cfg, gcfg, lat)
	sum, err := pipeline.Run(ctx, jobs, pipeline.Options{
		Workers:       cfg.Workers,
		NI:            pipeline.NIAll,
		NITrials:      cfg.NITrials,
		NITrialsMax:   cfg.NITrialsMax,
		NISeed:        cfg.Seed,
		Oracle:        cfg.Oracle,
		ExhaustBudget: cfg.ExhaustBudget,
		ExhaustProbes: cfg.ExhaustProbes,
	})
	if err == nil && len(jobs) < cfg.N {
		// Generation stopped early, so ctx is done.
		err = ctx.Err()
	}
	rep := &Report{
		RulesCited: map[string]int{},
		Elapsed:    sum.Elapsed,
		Workers:    sum.Workers,
		Seed:       cfg.Seed,
		N:          cfg.N,
		Gen:        gcfg,
		Analyzed:   len(sum.Results),
		TrialsRun:  sum.NITrialsRun,
		Aborted:    err != nil,
	}
	for i := range sum.Results {
		r := &sum.Results[i]
		v, detail := Classify(r)
		rep.Counts[v]++
		cfg.Events.Emit(events.Event{
			Kind: events.KindJobDone, Op: "fuzz",
			Index: int64(i), Class: v.String(), Rule: r.CitedRule(),
		})
		if r.IFC != nil && !r.IFC.OK {
			for _, d := range r.IFC.Diags {
				if d.Rule != "" {
					rep.RulesCited[d.Rule]++
				}
			}
		}
		if v == SoundnessViolation || v == GeneratorBug || v == RuntimeError {
			rep.Findings = append(rep.Findings, Finding{
				Index:   i,
				Seed:    cfg.Seed + int64(i),
				Verdict: v,
				Source:  r.Job.Source,
				Detail:  detail,
			})
			cfg.Events.Emit(events.Event{
				Kind: events.KindFinding, Op: "fuzz",
				Index: int64(i), Class: v.String(), Detail: detail,
			})
		}
	}
	cfg.Events.Emit(events.Event{
		Kind: events.KindProgress, Op: "fuzz", Done: rep.Analyzed, Total: cfg.N,
	})
	return rep, err
}

// generate builds the campaign's N programs before analysis starts, on
// up to cfg.Workers goroutines. Program i is gen.Random over a generator
// seeded with Seed+i, a pure function of its index, so how the indices
// fall across goroutines cannot change a byte; each goroutine reseeds one
// rand.Rand per program instead of allocating a source for each.
// Goroutines claim indices in increasing order and check ctx before each
// claim, so on cancellation the returned slice is the dense prefix of
// programs generated so far.
func generate(ctx context.Context, cfg Config, gcfg gen.Config, lat lattice.Lattice) []pipeline.Job {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, cfg.N)
	jobs := make([]pipeline.Job, cfg.N)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(0))
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= cfg.N {
					return
				}
				rng.Seed(cfg.Seed + int64(i))
				jobs[i] = pipeline.Job{
					Name:   fmt.Sprintf("fuzz-%d.p4", i),
					Source: gen.Random(rng, gcfg),
					Lat:    lat,
				}
			}
		}()
	}
	wg.Wait()
	return jobs[:min(int(next.Load()), cfg.N)]
}

// Classify maps one pipeline result to its verdict class and the detail
// text (witness, rule citation counts, or error) that goes with it. It is
// exported for the campaign engine, which classifies streamed results the
// same way Run classifies batched ones.
func Classify(r *pipeline.JobResult) (Verdict, string) {
	v := VerdictOf(r)
	return v, Detail(v, r)
}

// VerdictOf is Classify without the detail text: the one decision tree
// that maps a pipeline result to its verdict class. Predicates that only
// compare classes (the shrinker's keep functions) call it alone and
// format nothing.
func VerdictOf(r *pipeline.JobResult) Verdict {
	switch {
	case r.ParseErr != nil, r.ResolveErr != nil, !r.BaseOK():
		return GeneratorBug
	case r.IFCOK():
		// Witnesses outrank trial errors: ni.Experiment.Run can return
		// violations from early trials alongside an error from a later
		// one, and a witnessed soundness violation must never be masked.
		if len(r.NIViolations) > 0 {
			return SoundnessViolation
		}
		if r.NIErr != nil {
			return RuntimeError
		}
		return Sound
	default:
		if len(r.NIViolations) > 0 {
			return RejectedWitnessed
		}
		if r.NIErr != nil {
			return RuntimeError
		}
		// A clean rejection under the exhaustive oracle carries proof
		// provenance, graded by coverage: a total enumeration certifies
		// the rejection as imprecision; a probe-mode clean sweep (all
		// secrets, sampled publics — NITotal false) only certifies the
		// probed states, so it gets its own class rather than passing as
		// a proof; an inconclusive one leaves the program in the untested
		// gap.
		switch r.NIOutcome {
		case ni.ProvedSecure:
			if r.NITotal {
				return ProvedImprecise
			}
			return SecretExhausted
		case ni.Inconclusive:
			return UnderTested
		}
		return RejectedClean
	}
}

// Detail formats the detail text for r, whose verdict VerdictOf decided
// was v: the first failing frontend stage for a generator bug, the first
// witness or the runtime error, or the exhaustive oracle's coverage.
func Detail(v Verdict, r *pipeline.JobResult) string {
	switch v {
	case GeneratorBug:
		switch {
		case r.ParseErr != nil:
			return "parse: " + r.ParseErr.Error()
		case r.ResolveErr != nil:
			return "resolve: " + r.ResolveErr.Error()
		case r.Base != nil:
			if err := r.Base.Err(); err != nil {
				return "basecheck: " + err.Error()
			}
		}
		return "basecheck rejected"
	case SoundnessViolation, RejectedWitnessed:
		return r.NIViolations[0].String()
	case RuntimeError:
		return r.NIErr.Error()
	case ProvedImprecise:
		return fmt.Sprintf("exhaustive: non-interfering over the full input space (%d assignments)", r.NIAssignments)
	case SecretExhausted:
		return fmt.Sprintf("exhaustive: no secret influence at sampled public probes (%d assignments)", r.NIAssignments)
	case UnderTested:
		return "exhaustive: " + r.NIReason
	}
	return ""
}

// Count is the bounds-checked read of Report.Counts: out-of-range
// verdicts (which String renders as "Verdict(%d)") count zero instead of
// panicking, so callers indexing by verdicts from newer (or older)
// binaries stay safe as the enum grows.
func (r *Report) Count(v Verdict) int {
	if v < 0 || v >= NumVerdicts {
		return 0
	}
	return r.Counts[v]
}

// FormatReport renders the verdict table and any findings.
func FormatReport(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "differential soundness fuzzing: %d programs, seed %d, %d workers, %d NI trials, %v\n",
		r.N, r.Seed, r.Workers, r.TrialsRun, r.Elapsed.Round(time.Millisecond))
	lat := r.Gen.Lattice
	if lat == "" {
		lat = "two-point"
	}
	fmt.Fprintf(&b, "  gen config: depth=%d stmts=%d fields=%d actions=%v lattice=%s (regen seeds assume this config)\n",
		r.Gen.MaxDepth, r.Gen.MaxStmts, r.Gen.NumFields, r.Gen.WithActions, lat)
	fmt.Fprintf(&b, "  %-36s %8s\n", "verdict", "count")
	for v := Verdict(0); v < NumVerdicts; v++ {
		fmt.Fprintf(&b, "  %-36s %8d\n", v, r.Counts[v])
	}
	if len(r.RulesCited) > 0 {
		b.WriteString("  rules cited on rejections:")
		for _, rule := range sortedKeys(r.RulesCited) {
			fmt.Fprintf(&b, " %s×%d", rule, r.RulesCited[rule])
		}
		b.WriteByte('\n')
	}
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "\nFINDING #%d (%s, regen seed %d): %s\n%s",
			f.Index, f.Verdict, f.Seed, f.Detail, f.Source)
	}
	switch {
	case r.Aborted:
		fmt.Fprintf(&b, "ABORTED: campaign incomplete — verdicts cover only %d/%d programs\n", r.Analyzed, r.N)
	case r.OK():
		b.WriteString("PASS: no soundness violations, generator bugs, or runtime errors\n")
	default:
		b.WriteString("FAIL: implementation defects found (see findings above)\n")
	}
	return b.String()
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
