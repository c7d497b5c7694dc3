// Command perfbench is the repository's end-to-end benchmark: four
// workloads taken from the traffic the checker and the campaign stack
// serve, each checked for correct outputs, with end-to-end metrics from
// an untraced run and per-layer metrics from a traced one. See README.md.
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The lines before it
// list every metric by name with its unit, and the output checks.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

const (
	setupReps  = 5 // set-ups per run; setup_s is their median
	minBatches = 2 // timed batches (or passes) per run, at the least
)

// env is one run's inputs.
type env struct {
	seed       int64
	work       string // scratch directories live here
	seedCorpus string // the regression corpus the nightly mutates
	pins       *pinFile
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one workload run's outcome.
type result struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	metrics   []metric // what the JSON line carries
	extra     []metric // printed only
	problems  []string
}

var workloads = []string{"campaign", "nightly", "typecheck", "maintenance"}

func main() {
	workload := flag.String("workload", "", "campaign, nightly, typecheck, maintenance, or all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "seconds one run measures")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	outdir := flag.String("outdir", ".bench_build", "scratch and trace output directory")
	seedCorpus := flag.String("seed-corpus", "testdata/regression-corpus", "seed pool the nightly workload copies")
	pin := flag.String("pin", "", "recompute the pinned outputs of -workload (default all) into this file and exit")
	flag.Parse()

	var correct bool
	var err error
	if *workload == "all" && *pin == "" {
		correct, err = runAll("--seed", fmt.Sprint(*seed), "--seconds", fmt.Sprint(*seconds),
			"--trace", fmt.Sprint(*trace), "--outdir", *outdir, "--seed-corpus", *seedCorpus)
	} else {
		correct, err = run(*workload, *seed, *seconds, *trace == 1, *outdir, *seedCorpus, *pin)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !correct {
		os.Exit(1)
	}
}

// run runs the named workload and prints its result; correct is false
// when an output check failed.
func run(workload string, seed int64, seconds int, trace bool, outdir, seedCorpus, pin string) (correct bool, err error) {
	if _, err := os.Stat(filepath.Join(seedCorpus, "findings")); err != nil {
		return false, fmt.Errorf("seed corpus: %w (run from the repository root)", err)
	}
	pins, err := loadPins()
	if err != nil {
		return false, err
	}
	work := filepath.Join(outdir, "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return false, err
	}
	work, err = os.MkdirTemp(work, "run-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(work)
	e := &env{seed: seed, work: work, seedCorpus: seedCorpus, pins: pins}
	ctx := context.Background()
	if pin != "" {
		return true, writePins(ctx, e, pin, workload)
	}

	if !slices.Contains(workloads, workload) {
		return false, fmt.Errorf("unknown workload %q (want one of %v or all)", workload, workloads)
	}
	budget := time.Duration(seconds) * time.Second
	var r *result
	if trace {
		r, err = runTraced(ctx, e, workload, budget, filepath.Join(outdir, "traces", fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	} else {
		r, err = runUntraced(ctx, e, workload, budget)
	}
	if err != nil {
		return false, fmt.Errorf("%s: %w", workload, err)
	}
	printResult(r)
	line := resultLine{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, m := range r.metrics {
		line.Metrics[m.name] = value{m.value, m.unit}
	}
	return r.correct, printLine(line)
}

// runAll runs each workload in a process of its own, so each reports its
// own peak resident set, passes their output through, and prints one
// merged result line with the metric names prefixed by workload.
func runAll(args ...string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	all := resultLine{Correct: true, Metrics: map[string]value{}}
	for _, name := range workloads {
		cmd := exec.Command(self, append([]string{"--workload", name}, args...)...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		// Exit status 1 is a failed output check, reported in the line.
		if ee := (*exec.ExitError)(nil); err != nil && !(errors.As(err, &ee) && ee.ExitCode() == 1) {
			return false, fmt.Errorf("%s: %w", name, err)
		}
		text := strings.TrimRight(string(out), "\n")
		cut := strings.LastIndexByte(text, '\n') + 1
		fmt.Print(text[:cut])
		var r resultLine
		if err := json.Unmarshal([]byte(text[cut:]), &r); err != nil {
			return false, fmt.Errorf("%s: result line: %w", name, err)
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, v := range r.Metrics {
			all.Metrics[name+"."+k] = v
		}
	}
	return all.Correct, printLine(all)
}

// runUntraced measures one workload with tracing off.
func runUntraced(ctx context.Context, e *env, name string, budget time.Duration) (*result, error) {
	var m measurement
	var extra []metric
	switch name {
	case "campaign", "nightly":
		w := campaignWL
		if name == "nightly" {
			w = nightlyWL
		}
		if _, err := w.run(ctx, e, budget, &m); err != nil {
			return nil, err
		}
	case "typecheck":
		runTypecheck(e, budget, &m)
	case "maintenance":
		passes, err := runMaintenance(ctx, e, &m)
		if err != nil {
			return nil, err
		}
		extra = maintRates(passes)
	}
	m.rss = peakRSSMB()
	r := endToEnd(name, &m)
	r.extra = append(r.extra, extra...)
	return r, nil
}

// endToEnd turns an untraced measurement into the end-to-end metrics.
func endToEnd(name string, m *measurement) *result {
	p50, p99, at, n := verdictPercentiles(m.verdicts)
	var setup []float64
	for _, d := range m.setup {
		setup = append(setup, d.Seconds())
	}
	return &result{
		workload: name, attempted: m.attempted, failed: m.failed, problems: m.problems,
		correct: len(m.problems) == 0 && m.failed == 0 && m.attempted > 0,
		metrics: []metric{
			{"programs_per_s", median(m.rates), "1/s"},
			{"verdict_ms_p50", p50, "ms"},
			{"cpu_ms_per_program", median(m.cpuPer), "ms"},
			{"peak_rss_mb", m.rss, "MB"},
			{"setup_s", median(setup), "s"},
		},
		// The tail is reported but not gated: on a shared machine it
		// moves with the neighbours by more than any bound allows.
		extra: []metric{
			{"verdict_ms_p99", p99, "ms"},
			{"failed_ratio", ratio(float64(m.failed), float64(m.attempted)), "ratio"},
			{"programs_per_s.overall", ratio(float64(m.units), m.wall.Seconds()), "1/s"},
			{"rate_intervals", float64(len(m.rates)), "count"},
			{"verdict_samples", float64(n), "count"},
			{"verdict_ms_p99.percentile", at, "%"},
			{"setup_runs", float64(len(m.setup)), "count"},
		},
	}
}

// maintRates splits the maintenance pass into its replay and compact
// throughput.
func maintRates(passes []maintPass) []metric {
	var entries int
	var replay, compact time.Duration
	for _, p := range passes {
		entries += p.entries
		replay += p.replayWall
		compact += p.compactWall
	}
	return []metric{
		{"maintenance.replay_findings_per_s", ratio(float64(entries), replay.Seconds()), "1/s"},
		{"maintenance.compact_findings_per_s", ratio(float64(entries), compact.Seconds()), "1/s"},
	}
}

// printResult lists every metric by name with its unit, then the output
// checks.
func printResult(r *result) {
	fmt.Printf("== %s\n", r.workload)
	for _, m := range append(slices.Clone(r.metrics), r.extra...) {
		fmt.Printf("  %-40s %16.6f %s\n", m.name, m.value, m.unit)
	}
	status := "PASS"
	if !r.correct {
		status = "FAIL"
	}
	fmt.Printf("  output checks: %s (%d attempted, %d failed)\n", status, r.attempted, r.failed)
	for i, p := range r.problems {
		if i == 20 {
			fmt.Printf("    ... %d more\n", len(r.problems)-i)
			break
		}
		fmt.Printf("    %s\n", p)
	}
}

// resultLine is the JSON object a run prints as its last line.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printLine(l resultLine) error {
	b, err := json.Marshal(l)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
