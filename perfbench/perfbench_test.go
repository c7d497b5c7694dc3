package main

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro"
	"repro/internal/campaign"
	"repro/internal/difftest"
)

func TestSelfTimeIsSpanMinusUnionOfChildren(t *testing.T) {
	spans := []Span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50}, // overlaps a: union 10..50
		{Name: "c", Parent: 0, Start: 60, End: 70},
		{Name: "d", Parent: 0, Start: 90, End: 120}, // clipped to 90..100
		{Name: "a1", Parent: 1, Start: 12, End: 18},
		{Name: "other", Parent: -1, Start: 200, End: 210},
	}
	self := selfTimes(spans)
	want := []time.Duration{100 - 40 - 10 - 10, 20 - 6, 30, 10, 30, 6, 10}
	if !slices.Equal(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	sum := summarize(spans)
	var total time.Duration
	for _, d := range want {
		total += d
	}
	if sum.total != total {
		t.Errorf("total self time %v, want %v", sum.total, total)
	}
}

func TestSerialShareCountsSingleGoroutinePhases(t *testing.T) {
	tr := newTracer()
	tr.setPhase(phaseProducer)
	call(tr, "gen", "gen.Random", func() int { return 0 })
	tr.setPhase(phaseWorker)
	call(tr, "parser", "parser.Parse", func() int { return 0 })
	tr.setPhase(phaseFinalize)
	call(tr, "shrink", "shrink.Minimize", func() int {
		tr.setPhase(phaseWorker) // a nested span keeps its parent's phase
		return call(tr, "core", "core.Check", func() int { return 0 })
	})
	phases := []string{}
	for _, s := range tr.spans {
		phases = append(phases, s.Phase)
	}
	if want := []string{phaseProducer, phaseWorker, phaseFinalize, phaseFinalize}; !slices.Equal(phases, want) {
		t.Fatalf("phases %v, want %v", phases, want)
	}
	self := selfTimes(tr.spans)
	sum := summarize(tr.spans)
	if want := self[0] + self[2] + self[3]; sum.serial != want {
		t.Errorf("serial self time %v, want %v", sum.serial, want)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // distinct, unsorted
		}
		return xs
	}
	if _, ok := percentile(seq(100), 99); ok {
		t.Error("p99 of 100 samples reported with 1 sample beyond it")
	}
	if v, ok := percentile(seq(100), 90); !ok || v != 90 {
		t.Errorf("p90 of 100 samples = %v, %v; want 90, true", v, ok)
	}
	if v, ok := percentile(seq(1000), 99); !ok || v != 990 {
		t.Errorf("p99 of 1000 samples = %v, %v; want 990, true", v, ok)
	}
	for n := 0; n <= 2000; n++ {
		xs := seq(n)
		v, p, ok := tailPercentile(xs, 99)
		if !ok {
			if n > 2*minBeyond {
				t.Errorf("n=%d: no tail percentile", n)
			}
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond || p > 99 {
			t.Errorf("n=%d: reported p%.2f = %v with %d samples beyond", n, p, v, beyond)
		}
		if n >= 1000 && p != 99 {
			t.Errorf("n=%d: reported p%.2f, want p99", n, p)
		}
	}
}

func TestVerdictPercentilesPerIntervalOrPooled(t *testing.T) {
	group := func(n int, scale float64) []float64 {
		g := make([]float64, n)
		for i := range g {
			g[i] = scale * float64(i+1)
		}
		return g
	}
	// Three intervals of 1000: the median interval's p50 and p99, so the
	// stalled interval (scale 100) does not set the tail.
	p50, p99, at, n := verdictPercentiles([][]float64{group(1000, 1), group(1000, 2), group(1000, 100)})
	if p50 != 1000 || p99 != 1980 || at != 99 || n != 3000 {
		t.Errorf("per interval: p50 %v, p99 %v at p%v of %d; want 1000, 1980 at p99 of 3000", p50, p99, at, n)
	}
	// An interval too small for its own p99: pool everything.
	p50, p99, at, n = verdictPercentiles([][]float64{group(100, 1), group(50, 1)})
	if n != 150 || at >= 99 || p99 != 90 || p50 != 38 {
		t.Errorf("pooled: p50 %v, p99 %v at p%v of %d; want 38, 90 at p93.3 of 150", p50, p99, at, n)
	}
}

// pinnedBatch is a batch matching pin exactly.
func pinnedBatch(pin campaignPin, window, n int) batchResult {
	pin.Counts = slices.Clone(pin.Counts)
	return batchResult{window: window, out: pin, ok: true, analyzed: n}
}

func TestCampaignCheckFailsPerturbedVerdictCount(t *testing.T) {
	w := &campaignWorkload{name: "campaign", batch: 10}
	pin := campaignPin{Counts: make([]int, difftest.NumVerdicts), Capped: 1, Trials: 40}
	pin.Counts[difftest.Sound], pin.Counts[difftest.RejectedClean] = 7, 3
	pins := &pinFile{Campaign: map[string][]campaignPin{"campaign": {pin}}}

	var ok measurement
	w.check(pins, pinnedBatch(pin, 0, 10), &ok)
	if len(ok.problems) != 0 || ok.attempted != 10 || ok.failed != 0 {
		t.Fatalf("pinned batch: problems %v, %d attempted, %d failed", ok.problems, ok.attempted, ok.failed)
	}

	b := pinnedBatch(pin, 0, 10)
	b.out.Counts[difftest.Sound]--
	b.out.Counts[difftest.RejectedWitnessed]++
	var bad measurement
	w.check(pins, b, &bad)
	if len(bad.problems) == 0 || bad.failed != 10 {
		t.Errorf("perturbed verdict count: problems %v, %d failed; want a failed check and all 10 failed", bad.problems, bad.failed)
	}

	short := pinnedBatch(pin, 0, 9)
	var missing measurement
	w.check(pins, short, &missing)
	if len(missing.problems) == 0 || missing.failed != 10 {
		t.Errorf("batch missing a program passed: %v", missing.problems)
	}

	var unpinned measurement
	w.check(pins, pinnedBatch(pin, 1, 10), &unpinned)
	if len(unpinned.problems) == 0 || unpinned.failed != 10 {
		t.Errorf("window without a pin passed: %v", unpinned.problems)
	}
}

func TestTracedGateAgreesWithDiffFuzz(t *testing.T) {
	w := *campaignWL
	w.batch = 40
	b, err := w.execute(context.Background(), nil, 3, w.batch, untimed)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	st, err := w.traceGate(tr, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(st.hist[:], b.out.Counts) || st.trials != b.out.Trials {
		t.Errorf("traced verdicts %v (trials %d) differ from DiffFuzz's %v (trials %d)", st.hist, st.trials, b.out.Counts, b.out.Trials)
	}
	if sum := summarize(tr.spans); sum.layers["gen"].calls != w.batch || sum.layers["difftest"].calls != w.batch {
		t.Errorf("gen %d and difftest %d calls, want %d each", sum.layers["gen"].calls, sum.layers["difftest"].calls, w.batch)
	}
}

func TestMaintenanceCheckFailsDrift(t *testing.T) {
	pin := &maintPin{Entries: 3, Classes: map[string]int{"rejected-clean": 3}, AfterCompact: 2}
	pass := func(drifts int) *maintPass {
		rep := &repro.ReplayReport{Total: 3, Reproduced: 3 - drifts, ByClass: map[campaign.Class]int{campaign.ClassRejectedClean: 3}}
		for i := 0; i < drifts; i++ {
			rep.Drifts = append(rep.Drifts, campaign.Drift{Recorded: campaign.ClassRejectedClean, Got: "sound"})
		}
		return &maintPass{entries: 3, replay: rep, after: 2}
	}
	tri := &repro.TriageReport{Total: 3}
	cmp := &repro.CompactReport{Total: 3}

	var ok measurement
	checkPass(pin, pass(0), tri, cmp, &ok)
	if len(ok.problems) != 0 || ok.attempted != 3 || ok.failed != 0 {
		t.Fatalf("clean pass: problems %v, %d attempted, %d failed", ok.problems, ok.attempted, ok.failed)
	}

	var drift measurement
	checkPass(pin, pass(1), tri, cmp, &drift)
	if len(drift.problems) == 0 || drift.failed != 3 {
		t.Errorf("drifted pass: problems %v, %d failed; want a failed check and all 3 failed", drift.problems, drift.failed)
	}

	var shrunk measurement
	p := pass(0)
	p.after = 1
	checkPass(pin, p, tri, cmp, &shrunk)
	if len(shrunk.problems) == 0 {
		t.Error("wrong post-compact entry count passed")
	}
}

func TestTypecheckKnownAnswers(t *testing.T) {
	jobs := checkJobs()
	if len(jobs) != 3*len(caseStudyRules)+len(synthTables)+len(chainHeights) {
		t.Fatalf("%d programs, want every case-study variant plus the synthetic ones", len(jobs))
	}
	for i := range jobs {
		if got := typecheck(nil, &jobs[i]); got != jobs[i].want {
			t.Errorf("%s: %s, want %s", jobs[i].name, got, jobs[i].want)
		}
	}
	// A perturbed known answer must be caught.
	j := jobs[0]
	j.want = "accepted"
	if typecheck(nil, &j) == j.want {
		t.Errorf("%s: buggy variant accepted", j.name)
	}
}
