package difftest

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/basecheck"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/diag"
	"repro/internal/ni"
	"repro/internal/pipeline"
)

// TestClassify drives every verdict branch with synthetic pipeline
// results, including the soundness-violation branch a healthy checker
// never produces organically.
func TestClassify(t *testing.T) {
	okBase := &basecheck.Result{OK: true}
	badBase := &basecheck.Result{OK: false}
	okIFC := &core.Result{OK: true}
	badIFC := &core.Result{OK: false}
	witness := []ni.Violation{{Trial: 0, Where: "hdr", A: "1", B: "2"}}

	for _, tc := range []struct {
		name string
		r    pipeline.JobResult
		want Verdict
	}{
		{"parse failure", pipeline.JobResult{ParseErr: errors.New("x")}, GeneratorBug},
		{"resolve failure", pipeline.JobResult{ResolveErr: errors.New("x")}, GeneratorBug},
		{"base rejection", pipeline.JobResult{Base: badBase}, GeneratorBug},
		{"runtime error", pipeline.JobResult{Base: okBase, IFC: okIFC, NIErr: errors.New("x")}, RuntimeError},
		{"accepted clean", pipeline.JobResult{Base: okBase, IFC: okIFC}, Sound},
		{"accepted interfering", pipeline.JobResult{Base: okBase, IFC: okIFC, NIViolations: witness}, SoundnessViolation},
		{"witness outranks trial error", pipeline.JobResult{Base: okBase, IFC: okIFC, NIViolations: witness, NIErr: errors.New("x")}, SoundnessViolation},
		{"rejected witnessed", pipeline.JobResult{Base: okBase, IFC: badIFC, NIViolations: witness}, RejectedWitnessed},
		{"rejected clean", pipeline.JobResult{Base: okBase, IFC: badIFC}, RejectedClean},
		{"rejected, proved secure over the full space", pipeline.JobResult{Base: okBase, IFC: badIFC, NIOutcome: ni.ProvedSecure, NITotal: true, NIAssignments: 512}, ProvedImprecise},
		{"rejected, clean probe-mode sweep is not a proof", pipeline.JobResult{Base: okBase, IFC: badIFC, NIOutcome: ni.ProvedSecure, NIAssignments: 512}, SecretExhausted},
		{"rejected, enumeration inconclusive", pipeline.JobResult{Base: okBase, IFC: badIFC, NIOutcome: ni.Inconclusive, NIReason: "width-budget-exceeded"}, UnderTested},
		{"witness outranks proof outcome", pipeline.JobResult{Base: okBase, IFC: badIFC, NIViolations: witness, NIOutcome: ni.ProvedInsecure}, RejectedWitnessed},
		{"accepted ignores proof outcome", pipeline.JobResult{Base: okBase, IFC: okIFC, NIOutcome: ni.ProvedSecure, NITotal: true}, Sound},
	} {
		got, _ := Classify(&tc.r)
		if got != tc.want {
			t.Errorf("%s: classified %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestReportCount locks the bounds-checked accessor: in-range verdicts
// read the counts array, out-of-range ones (older or newer binaries'
// enum values) read zero instead of panicking.
func TestReportCount(t *testing.T) {
	var r Report
	r.Counts[ProvedImprecise] = 3
	r.Counts[UnderTested] = 2
	if got := r.Count(ProvedImprecise); got != 3 {
		t.Errorf("Count(ProvedImprecise) = %d, want 3", got)
	}
	if got := r.Count(UnderTested); got != 2 {
		t.Errorf("Count(UnderTested) = %d, want 2", got)
	}
	if got := r.Count(Verdict(-1)); got != 0 {
		t.Errorf("Count(-1) = %d, want 0", got)
	}
	if got := r.Count(NumVerdicts); got != 0 {
		t.Errorf("Count(NumVerdicts) = %d, want 0", got)
	}
	if got := r.Count(Verdict(1000)); got != 0 {
		t.Errorf("Count(1000) = %d, want 0", got)
	}
}

// legacyClassify is Classify as one function, before the verdict was
// split from its detail text: the reference the split is checked
// against.
func legacyClassify(r *pipeline.JobResult) (Verdict, string) {
	switch {
	case r.ParseErr != nil:
		return GeneratorBug, "parse: " + r.ParseErr.Error()
	case r.ResolveErr != nil:
		return GeneratorBug, "resolve: " + r.ResolveErr.Error()
	case !r.BaseOK():
		detail := "basecheck rejected"
		if r.Base != nil && r.Base.Err() != nil {
			detail = "basecheck: " + r.Base.Err().Error()
		}
		return GeneratorBug, detail
	case r.IFCOK():
		if len(r.NIViolations) > 0 {
			return SoundnessViolation, r.NIViolations[0].String()
		}
		if r.NIErr != nil {
			return RuntimeError, r.NIErr.Error()
		}
		return Sound, ""
	default:
		if len(r.NIViolations) > 0 {
			return RejectedWitnessed, r.NIViolations[0].String()
		}
		if r.NIErr != nil {
			return RuntimeError, r.NIErr.Error()
		}
		switch r.NIOutcome {
		case ni.ProvedSecure:
			if r.NITotal {
				return ProvedImprecise, fmt.Sprintf(
					"exhaustive: non-interfering over the full input space (%d assignments)", r.NIAssignments)
			}
			return SecretExhausted, fmt.Sprintf(
				"exhaustive: no secret influence at sampled public probes (%d assignments)", r.NIAssignments)
		case ni.Inconclusive:
			return UnderTested, "exhaustive: " + r.NIReason
		}
		return RejectedClean, ""
	}
}

// checkSplit asserts that VerdictOf is Classify's verdict and that both
// agree with the unsplit reference, detail text included.
func checkSplit(t *testing.T, name string, r *pipeline.JobResult) {
	t.Helper()
	v, detail := Classify(r)
	wantV, wantDetail := legacyClassify(r)
	if got := VerdictOf(r); got != v {
		t.Errorf("%s: VerdictOf = %v, Classify = %v", name, got, v)
	}
	if v != wantV || detail != wantDetail {
		t.Errorf("%s: Classify = (%v, %q), unsplit reference (%v, %q)", name, v, detail, wantV, wantDetail)
	}
}

// TestVerdictOfMatchesClassify: on every synthetic branch case and on the
// pipeline result of every regression-corpus entry (under its recorded
// lattice, seed, budget, and oracle), VerdictOf returns Classify's
// verdict and Classify matches the unsplit decision tree.
func TestVerdictOfMatchesClassify(t *testing.T) {
	okBase := &basecheck.Result{OK: true}
	badIFC := &core.Result{OK: false}
	witness := []ni.Violation{{Trial: 0, Where: "hdr", A: "1", B: "2"}}
	for i, r := range []pipeline.JobResult{
		{ParseErr: errors.New("x")},
		{ResolveErr: errors.New("x")},
		{},
		{Base: &basecheck.Result{OK: false}},
		{Base: &basecheck.Result{OK: false, Diags: []*diag.Diagnostic{{Severity: diag.Error, Rule: "B-Assign", Msg: "bad"}}}},
		{Base: okBase, IFC: &core.Result{OK: true}, NIViolations: witness, NIErr: errors.New("x")},
		{Base: okBase, IFC: badIFC, NIErr: errors.New("x")},
		{Base: okBase, IFC: badIFC, NIOutcome: ni.ProvedSecure, NITotal: true, NIAssignments: 512},
		{Base: okBase, IFC: badIFC, NIOutcome: ni.ProvedSecure, NIAssignments: 512},
		{Base: okBase, IFC: badIFC, NIOutcome: ni.Inconclusive, NIReason: "width-budget-exceeded"},
		{Base: okBase, IFC: badIFC},
	} {
		checkSplit(t, fmt.Sprintf("synthetic case %d", i), &r)
	}

	c, err := corpus.Open("../../testdata/regression-corpus")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for e := range c.Select(corpus.Filter{}) {
		m := e.Meta
		src, err := e.Source()
		if err != nil {
			t.Fatal(err)
		}
		lat, err := m.Gen.ResolveLattice()
		if err != nil {
			t.Fatal(err)
		}
		trials, max := 4, 32
		if m.NITrials > 0 {
			trials, max = m.NITrials, m.NITrialsMax
		}
		sum, err := pipeline.Run(context.Background(), []pipeline.Job{{Name: e.Name, Source: src, Lat: lat}}, pipeline.Options{
			Workers: 1, NI: pipeline.NIAll, NITrials: trials, NITrialsMax: max, NISeed: m.NISeed,
			Oracle: m.NIOracle, ExhaustBudget: m.ExhaustBudget, ExhaustProbes: m.ExhaustProbes,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkSplit(t, e.Name, &sum.Results[0])
		n++
	}
	if n == 0 {
		t.Fatal("regression corpus is empty")
	}
	t.Logf("%d regression-corpus results", n)
}
