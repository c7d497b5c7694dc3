package difftest_test

import (
	"context"
	"maps"
	"strings"
	"testing"
	"time"

	"repro/internal/difftest"
)

// campaignSize returns the acceptance-criteria campaign size: >= 1000
// programs, or >= 100 under -short.
func campaignSize(t *testing.T) int {
	if testing.Short() {
		return 100
	}
	return 1000
}

// TestCampaignFindsNoDefects is the headline harness test: a full
// differential campaign over generated programs must find zero soundness
// violations (no IFC-accepted program interferes), zero generator bugs
// (every generated program parses and base-checks), and zero runtime
// errors.
func TestCampaignFindsNoDefects(t *testing.T) {
	rep, err := difftest.Run(context.Background(), difftest.Config{
		N:        campaignSize(t),
		Seed:     20260728,
		NITrials: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("campaign found implementation defects:\n%s", difftest.FormatReport(rep))
	}
	if got := rep.Counts[difftest.SoundnessViolation]; got != 0 {
		t.Errorf("%d soundness violations — Theorem 4.3 falsified by the implementation", got)
	}
	if rep.Counts[difftest.Sound] == 0 {
		t.Error("no program was IFC-accepted — the generator is not exercising the accept path")
	}
	if rep.Counts[difftest.RejectedWitnessed]+rep.Counts[difftest.RejectedClean] == 0 {
		t.Error("no program was IFC-rejected — the generator is not exercising the reject path")
	}
	// The NI harness must be demonstrating rejections are real at least
	// sometimes; an all-clean rejected population would mean the trials
	// never catch anything.
	if rep.Counts[difftest.RejectedWitnessed] == 0 {
		t.Error("no rejected program had interference witnessed — NI trials are toothless")
	}
	t.Logf("\n%s", difftest.FormatReport(rep))
}

// TestCampaignDeterministic re-runs a small campaign with the same seed
// and expects identical verdict counts regardless of scheduling.
func TestCampaignDeterministic(t *testing.T) {
	run := func(workers int) *difftest.Report {
		rep, err := difftest.Run(context.Background(), difftest.Config{
			N: 60, Seed: 99, NITrials: 4, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(1), run(8)
	if a.Counts != b.Counts {
		t.Errorf("verdict counts depend on worker count: %v vs %v", a.Counts, b.Counts)
	}
}

// TestCampaignIdenticalAcrossWorkers checks that the worker count, which
// also splits program generation, changes nothing a report carries: the
// verdict counts, trials, rule citations, and every finding must match the
// single-worker run exactly.
func TestCampaignIdenticalAcrossWorkers(t *testing.T) {
	run := func(workers int) *difftest.Report {
		rep, err := difftest.Run(context.Background(), difftest.Config{
			N: 80, Seed: 31337, NITrials: 2, NITrialsMax: 8, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	ref := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if got.Counts != ref.Counts {
			t.Errorf("workers=%d: counts %v, want %v", workers, got.Counts, ref.Counts)
		}
		if got.TrialsRun != ref.TrialsRun {
			t.Errorf("workers=%d: %d trials, want %d", workers, got.TrialsRun, ref.TrialsRun)
		}
		if !maps.Equal(got.RulesCited, ref.RulesCited) {
			t.Errorf("workers=%d: rules cited %v, want %v", workers, got.RulesCited, ref.RulesCited)
		}
		if len(got.Findings) != len(ref.Findings) {
			t.Fatalf("workers=%d: %d findings, want %d", workers, len(got.Findings), len(ref.Findings))
		}
		for i, f := range got.Findings {
			r := ref.Findings[i]
			if f.Index != r.Index || f.Seed != r.Seed || f.Verdict != r.Verdict ||
				f.Source != r.Source || f.Detail != r.Detail {
				t.Errorf("workers=%d: finding %d = #%d (%s), want #%d (%s)",
					workers, i, f.Index, f.Verdict, r.Index, r.Verdict)
			}
		}
	}
}

// TestCampaignRejectsBadConfig checks the config validation path.
func TestCampaignRejectsBadConfig(t *testing.T) {
	if _, err := difftest.Run(context.Background(), difftest.Config{N: 0}); err == nil {
		t.Error("N=0 accepted")
	}
}

// TestCampaignCancellation checks a cancelled campaign reports the context
// error but still returns the partial report.
func TestCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := difftest.Run(ctx, difftest.Config{N: 50, Seed: 1, NITrials: 2})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("no partial report returned")
	}
	if !rep.Aborted {
		t.Error("cancelled campaign not marked Aborted")
	}
	if !strings.Contains(difftest.FormatReport(rep), "ABORTED") {
		t.Error("report of cancelled campaign does not say ABORTED")
	}
}

// TestCampaignPreCancelledReturnsPromptly checks that a campaign whose
// context is already cancelled does not generate its programs first: a
// 200,000-program run, which takes seconds to generate, must come back at
// once, aborted, with its counts covering exactly the analyzed prefix.
func TestCampaignPreCancelledReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const n = 200_000
	start := time.Now()
	rep, err := difftest.Run(ctx, difftest.Config{N: n, Seed: 1, NITrials: 2, Workers: 2})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("pre-cancelled campaign took %v", elapsed)
	}
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !rep.Aborted || rep.Analyzed >= n {
		t.Fatalf("Aborted=%v Analyzed=%d, want an aborted partial report", rep.Aborted, rep.Analyzed)
	}
	total := 0
	for _, c := range rep.Counts {
		total += c
	}
	if total != rep.Analyzed {
		t.Errorf("counts cover %d programs, Analyzed says %d", total, rep.Analyzed)
	}
	for _, f := range rep.Findings {
		if f.Index >= rep.Analyzed {
			t.Errorf("finding #%d lies outside the analyzed prefix of %d", f.Index, rep.Analyzed)
		}
	}
}

// TestFormatReport checks the verdict table renders every class and the
// PASS line.
func TestFormatReport(t *testing.T) {
	rep, err := difftest.Run(context.Background(), difftest.Config{N: 30, Seed: 5, NITrials: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := difftest.FormatReport(rep)
	for _, want := range []string{
		"30 programs", "sound (IFC-accepted, NI-clean)",
		"SOUNDNESS VIOLATION", "generator bug",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
