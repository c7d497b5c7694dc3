package main

import (
	"repro/internal/ast"
	"repro/internal/basecheck"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/difftest"
	"repro/internal/eval"
	"repro/internal/exhaust"
	"repro/internal/lattice"
	"repro/internal/ni"
	"repro/internal/parser"
	"repro/internal/pipeline"
	"repro/internal/resolve"
)

// niConfig is the NI budget and backend one analysis runs under — the
// fields of pipeline.Options the stage sequence reads.
type niConfig struct {
	trials, max int
	seed        int64
	oracle      string
	budget      uint64
	probes      int
}

// analyze pushes one program through the stages pipeline.runJob runs —
// parse, resolve, basecheck, IFC, compile, then the NI oracle at every
// observer — with each call a span, and returns the result
// difftest.Classify reads.
func analyze(t *Tracer, name, src string, lat lattice.Lattice, nc niConfig) pipeline.JobResult {
	r := pipeline.JobResult{Job: pipeline.Job{Name: name, Source: src, Lat: lat}}
	t.add("parser.bytes", float64(len(src)))
	prog, err := call2(t, "parser", "parser.Parse", func() (*ast.Program, error) { return parser.Parse(name, src) })
	if err != nil {
		r.ParseErr = err
		return r
	}
	r.Prog = prog
	r.ResolveErr = call(t, "resolve", "resolve.CollectTypeDecls", func() error {
		var diags diag.List
		resolve.New(lat, &diags).CollectTypeDecls(prog)
		return diags.Err()
	})
	if r.ResolveErr != nil {
		return r
	}
	r.Base = call(t, "basecheck", "basecheck.Check", func() *basecheck.Result { return basecheck.Check(prog) })
	if !r.Base.OK {
		return r
	}
	r.IFC = call(t, "core", "core.Check", func() *core.Result { return core.Check(prog, lat) })

	observers := observersFor(lat)
	split := len(observers)
	trials := nc.trials
	if trials <= 0 {
		trials = 8
	}
	baseT := (trials + split - 1) / split
	maxT := 0
	if nc.max > trials {
		maxT = (nc.max + split - 1) / split
	}
	code, compileErr := call2(t, "eval", "eval.Compile", func() (*eval.Compiled, error) { return eval.Compile(prog) })
	t.add("eval.compiles", 1)
	if compileErr != nil {
		t.add("eval.compile_fails", 1)
	}
	var sampler ni.Oracle = ni.Randomized{Trials: baseT}
	if maxT > baseT && !r.IFC.OK {
		sampler = ni.Adaptive{Min: baseT, Max: maxT}
	}
	if nc.oracle == pipeline.OracleRandomized {
		sampler = ni.Randomized{Trials: baseT}
	}
	allTotal := true
	for _, obs := range observers {
		exp := &ni.Experiment{Prog: prog, Lat: lat, Observer: obs, Code: code, Interp: compileErr != nil}
		res, err := checkNI(t, exp, nc, sampler)
		r.NIViolations = append(r.NIViolations, res.Violations...)
		r.NITrialsRun += res.Trials
		r.NIAssignments += res.Assignments
		allTotal = allTotal && res.Total
		if outcomeRank(res.Outcome) > outcomeRank(r.NIOutcome) {
			r.NIOutcome, r.NIReason = res.Outcome, res.Reason
		}
		if err != nil && r.NIErr == nil {
			r.NIErr = err
		}
		if len(res.Violations) > 0 {
			break
		}
	}
	r.NITotal = allTotal
	r.NIRan = true
	t.add("ni.jobs", 1)
	if len(r.NIViolations) > 0 {
		t.add("ni.witness_jobs", 1)
	}
	if nc.oracle == pipeline.OracleExhaustive {
		t.add("exhaust.jobs", 1)
		if r.NIOutcome == ni.ProvedSecure || r.NIOutcome == ni.ProvedInsecure {
			t.add("exhaust.decided_jobs", 1)
		}
	}
	return r
}

// checkNI runs one observer's NI check. The exhaustive oracle is called
// without its fallback and the fallback is called here when nothing was
// enumerated, exactly as exhaust.Oracle.Check would, so enumeration and
// sampling land in separate spans.
func checkNI(t *Tracer, exp *ni.Experiment, nc niConfig, sampler ni.Oracle) (ni.Result, error) {
	sample := func() (ni.Result, error) {
		res, err := call2(t, "ni", "ni."+sampler.Name()+".Check", func() (ni.Result, error) { return sampler.Check(exp, nc.seed) })
		t.add("ni.trials", float64(res.Trials))
		return res, err
	}
	if nc.oracle != pipeline.OracleExhaustive {
		return sample()
	}
	ex := exhaust.Oracle{Budget: nc.budget, Probes: nc.probes}
	res, err := call2(t, "exhaust", "exhaust.Oracle.Check", func() (ni.Result, error) { return ex.Check(exp, nc.seed) })
	t.add("exhaust.assignments", float64(res.Assignments))
	// Without a fallback, Check returns Inconclusive with no error only
	// when it enumerated nothing (a failed sweep carries its error).
	if err != nil || res.Outcome != ni.Inconclusive {
		return res, err
	}
	fres, ferr := sample()
	fres.Outcome, fres.Reason = ni.Inconclusive, res.Reason
	return fres, ferr
}

// observersFor mirrors the pipeline's observer sweep: every lattice
// element except top (bottom alone for a one-element lattice).
func observersFor(lat lattice.Lattice) []lattice.Label {
	var out []lattice.Label
	for _, e := range lat.Elements() {
		if e != lat.Top() {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		out = []lattice.Label{lat.Bottom()}
	}
	return out
}

// outcomeRank mirrors the pipeline's per-job aggregation order.
func outcomeRank(o ni.Outcome) int {
	switch o {
	case ni.ProvedInsecure:
		return 3
	case ni.Inconclusive:
		return 2
	case ni.ProvedSecure:
		return 1
	}
	return 0
}

// classify is difftest.Classify as a span.
func classify(t *Tracer, r *pipeline.JobResult) (difftest.Verdict, string) {
	return call2(t, "difftest", "difftest.Classify", func() (difftest.Verdict, string) { return difftest.Classify(r) })
}

// roundtrip is the campaign's parse → print → reparse fixed-point check,
// one span per call.
func roundtrip(t *Tracer, name string, prog *ast.Program) bool {
	printed := call(t, "ast", "ast.Print", func() string { return ast.Print(prog) })
	t.add("parser.bytes", float64(len(printed)))
	re, err := call2(t, "parser", "parser.Parse", func() (*ast.Program, error) { return parser.Parse(name, printed) })
	if err != nil {
		return true
	}
	return call(t, "ast", "ast.Print", func() string { return ast.Print(re) }) != printed
}

// corpusClass maps a verdict to the corpus class a campaign persists it
// under ("" for verdicts it does not persist).
func corpusClass(v difftest.Verdict) campaign.Class {
	switch v {
	case difftest.SoundnessViolation:
		return campaign.ClassSoundnessViolation
	case difftest.GeneratorBug:
		return campaign.ClassGeneratorBug
	case difftest.RuntimeError:
		return campaign.ClassRuntimeError
	case difftest.RejectedClean:
		return campaign.ClassRejectedClean
	case difftest.ProvedImprecise:
		return campaign.ClassProvedImprecise
	case difftest.SecretExhausted:
		return campaign.ClassSecretExhausted
	case difftest.UnderTested:
		return campaign.ClassUnderTested
	}
	return ""
}

// replayClass is the class replay reports for a verdict: the corpus
// class, or the retired-corpus spelling of the uninteresting verdicts.
func replayClass(v difftest.Verdict) string {
	if c := corpusClass(v); c != "" {
		return string(c)
	}
	switch v {
	case difftest.Sound:
		return string(campaign.ClassSound)
	case difftest.RejectedWitnessed:
		return string(campaign.ClassRejectedWitnessed)
	}
	return v.String()
}
