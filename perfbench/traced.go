package main

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"time"
)

// runTraced is the per-layer run. Its first half is the untraced run —
// it supplies the verdicts the trace must agree with, the wall time the
// tracing overhead is measured against, and the allocation and
// nondeterminism counts — and its second half repeats the same batches
// with every call into a module timed from this side of the call.
func runTraced(ctx context.Context, e *env, name string, budget time.Duration, path string) (*result, error) {
	half := budget / 2
	var m measurement
	t := newTracer()
	workers := runtime.NumCPU()
	var untracedWall, tracedWall time.Duration
	var programs, mutants, fallback int
	per := map[string]float64{}

	start := time.Now()
	more := func(i int) bool { return i == 0 || time.Since(start) < half }
	switch name {
	case "campaign", "nightly":
		w := campaignWL
		if name == "nightly" {
			w = nightlyWL
		}
		bs, err := w.run(ctx, e, half, &m)
		if err != nil {
			return nil, err
		}
		m.rss = peakRSSMB()
		var capped, collected int
		for _, b := range bs {
			capped += b.out.Capped
			collected += b.collected
		}
		per["campaign.capped_ratio"] = ratio(float64(capped), float64(collected))
		per["campaign.finding_key_hash"] = findingKeyHash(bs)
		start = time.Now()
		for i, b := range bs {
			if !more(i) {
				break
			}
			before := t.counts["exhaust.assignments"]
			st, err := w.trace(t, e, b.window)
			if err != nil {
				return nil, err
			}
			tracedWall += st.wall
			untracedWall += b.wall
			programs += w.batch
			mutants += st.mutants
			fallback += st.fallback
			if w.mutate {
				// Mutant parents are drawn by the trace's own rule, so the
				// traced verdicts differ from the engine's; the traced
				// enumeration is checked against its own pin instead.
				if pin := e.pins.campaign(name, b.window); pin == nil || uint64(t.counts["exhaust.assignments"]-before) != pin.Assignments {
					m.fail("%s window %d: traced exhaust assignments %v differ from the pin", name, b.window, t.counts["exhaust.assignments"]-before)
				}
			} else if !slices.Equal(st.hist[:], b.out.Counts) || st.parser != b.out.Parser || st.capped != b.out.Capped || st.trials != b.out.Trials {
				m.fail("%s window %d: traced verdicts %v (parser %d, capped %d, trials %d) differ from untraced %v (parser %d, capped %d, trials %d)",
					name, b.window, st.hist, st.parser, st.capped, st.trials, b.out.Counts, b.out.Parser, b.out.Capped, b.out.Trials)
			}
		}
	case "typecheck":
		workers = 1
		hist := runTypecheck(e, half, &m)
		m.rss = peakRSSMB()
		thist, calls, wall := traceTypecheck(t, e, half)
		if !maps.Equal(hist, thist) {
			m.fail("typecheck: traced verdicts %v differ from untraced %v", thist, hist)
		}
		tracedWall = wall
		untracedWall = time.Duration(float64(m.wall) * float64(calls) / float64(m.units))
		programs = calls
	case "maintenance":
		passes, err := runMaintenance(ctx, e, &m)
		if err != nil {
			return nil, err
		}
		m.rss = peakRSSMB()
		for _, r := range maintRates(passes) {
			per[r.name] = r.value
		}
		start = time.Now()
		for i, p := range passes {
			if !more(i) {
				break
			}
			tp, err := tracePass(ctx, t, e, p.window)
			if err != nil {
				return nil, err
			}
			if !sameHist(tp.hist, replayHist(p.replay)) || tp.after != p.after {
				m.fail("maintenance window %d: traced replay %v (%d after compact) differs from untraced %v (%d)",
					p.window, tp.hist, tp.after, replayHist(p.replay), p.after)
			}
			tracedWall += tp.wall
			untracedWall += p.wall
			programs += p.entries
		}
	}
	if err := t.write(path); err != nil {
		return nil, err
	}

	sum := summarize(t.spans)
	busy := func(mod string) float64 { return sum.layers[mod].busy.Seconds() }
	c := t.counts
	var metrics []metric
	for _, mod := range modules {
		metrics = append(metrics,
			metric{mod + ".calls", float64(sum.layers[mod].calls), "count"},
			metric{mod + ".busy_s", busy(mod), "s"},
			metric{mod + ".share", ratio(busy(mod), sum.total.Seconds()), "ratio"})
	}
	metrics = append(metrics,
		metric{"parser.bytes_per_s", ratio(c["parser.bytes"], busy("parser")), "B/s"},
		metric{"eval.compile_fail_ratio", ratio(c["eval.compile_fails"], c["eval.compiles"]), "ratio"},
		metric{"ni.trials", c["ni.trials"], "count"},
		metric{"ni.trials_per_s", ratio(c["ni.trials"], busy("ni")), "1/s"},
		metric{"ni.witness_ratio", ratio(c["ni.witness_jobs"], c["ni.jobs"]), "ratio"},
		metric{"exhaust.assignments", c["exhaust.assignments"], "count"},
		metric{"exhaust.assignments_per_s", ratio(c["exhaust.assignments"], busy("exhaust")), "1/s"},
		metric{"exhaust.decided_ratio", ratio(c["exhaust.decided_jobs"], c["exhaust.jobs"]), "ratio"},
		metric{"shrink.candidates", c["shrink.candidates"], "count"},
		metric{"shrink.accept_ratio", ratio(c["shrink.accepted"], c["shrink.candidates"]), "ratio"},
		metric{"shrink.bytes_saved_ratio", ratio(c["shrink.bytes_in"]-c["shrink.bytes_out"], c["shrink.bytes_in"]), "ratio"},
		metric{"mutate.fallback_ratio", ratio(float64(fallback), float64(mutants)), "ratio"},
		metric{"corpus.dedup_hit_ratio", ratio(c["corpus.dedup_hits"], c["corpus.dedup_checks"]), "ratio"},
		metric{"corpus.open_s", spanSeconds(t.spans, "corpus.Open"), "s"},
		metric{"corpus.saveindex_s", spanSeconds(t.spans, "corpus.SaveIndex"), "s"},
		metric{"campaign.serial_share", ratio(sum.serial.Seconds(), sum.total.Seconds()), "ratio"},
		metric{"campaign.capped_ratio", per["campaign.capped_ratio"], "ratio"},
		metric{"campaign.finding_key_hash", per["campaign.finding_key_hash"], "hash"},
		metric{"pipeline.parallel_efficiency", ratio(sum.total.Seconds(), untracedWall.Seconds()*float64(workers)), "ratio"},
		metric{"runtime.alloc_bytes_per_program", ratio(float64(m.alloc), float64(m.units)), "B"},
		metric{"runtime.gc_cycles_per_kprogram", ratio(1000*float64(m.gcs), float64(m.units)), "count"},
		metric{"core.ifc_over_base", ratio(busy("core"), busy("basecheck")), "ratio"},
		metric{"trace.overhead_ratio", ratio(tracedWall.Seconds(), untracedWall.Seconds()), "ratio"},
		metric{"trace.approx_job_ratio", ratio(float64(mutants), float64(programs)), "ratio"},
		metric{"maintenance.replay_findings_per_s", per["maintenance.replay_findings_per_s"], "1/s"},
		metric{"maintenance.compact_findings_per_s", per["maintenance.compact_findings_per_s"], "1/s"},
	)

	r := endToEnd(name, &m)
	tail := slices.IndexFunc(r.extra, func(x metric) bool { return x.name == "verdict_ms_p99" })
	metrics = append(metrics, r.extra[tail]) // from the untraced half
	r.extra = append(append(r.metrics, slices.Delete(r.extra, tail, tail+1)...),
		metric{"trace.programs", float64(programs), "count"},
		metric{"trace.spans", float64(len(t.spans)), "count"})
	r.metrics = metrics
	fmt.Printf("trace written to %s\n", path)
	return r, nil
}

// spanSeconds totals the duration of the spans with the given name.
func spanSeconds(spans []Span, name string) float64 {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d.Seconds()
}
