package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"
	"time"

	"repro"
)

// The output checks compare every batch with outputs pinned for its
// window: verdicts are a function of the program index, so a window's
// verdict counts, parser disagreements, cap overflow, and NI trial total
// are the same on every run and at any worker count. A deliberate
// semantic change regenerates the file with -pin.

//go:embed pins.json
var pinsJSON []byte

// campaignPin is one campaign window's pinned outputs.
type campaignPin struct {
	Counts  []int `json:"counts"` // per difftest verdict, in enum order
	Parser  int   `json:"parser_disagreements"`
	Capped  int   `json:"capped"`
	Trials  int64 `json:"ni_trials"`
	Mutants int   `json:"mutants"`
	// Assignments is the exhaustive oracle's enumeration total in the
	// traced replay of the window (whose mutants are approximate, so it
	// is pinned separately from the untraced outputs).
	Assignments uint64 `json:"traced_exhaust_assignments,omitempty"`
}

// maintPin is one maintenance window's pinned outputs.
type maintPin struct {
	Entries      int            `json:"entries"`
	Classes      map[string]int `json:"classes"`
	AfterCompact int            `json:"after_compact"`
}

type pinFile struct {
	Campaign    map[string][]campaignPin `json:"campaign"` // by workload name, indexed by window
	Maintenance []maintPin               `json:"maintenance"`
}

func loadPins() (*pinFile, error) {
	var p pinFile
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return &p, nil
}

func (p *pinFile) campaign(workload string, window int) *campaignPin {
	ws := p.Campaign[workload]
	if window < 0 || window >= len(ws) {
		return nil
	}
	return &ws[window]
}

func (p *pinFile) maintenance(window int) *maintPin {
	if window < 0 || window >= len(p.Maintenance) {
		return nil
	}
	return &p.Maintenance[window]
}

// pinOf extracts a campaign report's pinned outputs.
func pinOf(rep *repro.CampaignReport) campaignPin {
	return campaignPin{Counts: slices.Clone(rep.Counts[:]), Parser: rep.ParserDisagreements,
		Capped: rep.CappedFindings, Trials: rep.TrialsRun, Mutants: rep.MutantJobs}
}

// sameOutputs compares the untraced outputs of two pins.
func (a campaignPin) sameOutputs(b *campaignPin) bool {
	return slices.Equal(a.Counts, b.Counts) && a.Parser == b.Parser && a.Capped == b.Capped &&
		a.Trials == b.Trials && a.Mutants == b.Mutants
}

// writePins recomputes the windows' outputs of one workload (or of all,
// for "" or "all") and writes the pin file to path, keeping the other
// workloads' pins.
func writePins(ctx context.Context, env *env, path, only string) error {
	redo := func(name string) bool { return only == "" || only == "all" || only == name }
	out := *env.pins
	out.Campaign = maps.Clone(out.Campaign)
	if out.Campaign == nil {
		out.Campaign = map[string][]campaignPin{}
	}
	for _, w := range []*campaignWorkload{campaignWL, nightlyWL} {
		if !redo(w.name) {
			continue
		}
		out.Campaign[w.name] = nil
		for window := 0; window < w.windows; window++ {
			t0 := time.Now()
			b, err := w.execute(ctx, env, window, w.batch, untimed)
			if err != nil {
				return err
			}
			pin := b.out
			if w.oracle != "" {
				t := newTracer()
				if _, err := w.trace(t, env, window); err != nil {
					return err
				}
				pin.Assignments = uint64(t.counts["exhaust.assignments"])
			}
			out.Campaign[w.name] = append(out.Campaign[w.name], pin)
			fmt.Fprintf(os.Stderr, "pinned %s window %d in %v (OK=%v)\n", w.name, window, time.Since(t0).Round(time.Millisecond), b.ok)
		}
	}
	if redo("maintenance") {
		out.Maintenance = nil
	}
	for window := 0; redo("maintenance") && window < maintWindows; window++ {
		var m measurement
		p, err := runPass(ctx, env, window, &m)
		if err != nil {
			return err
		}
		out.Maintenance = append(out.Maintenance, maintPin{Entries: p.entries, Classes: replayHist(p.replay), AfterCompact: p.after})
		fmt.Fprintf(os.Stderr, "pinned maintenance window %d: %d entries, %d after compact\n", window, p.entries, p.after)
	}
	// One window per line keeps the file short and its diffs readable.
	var b bytes.Buffer
	b.WriteString("{\n  \"campaign\": {")
	for i, name := range slices.Sorted(maps.Keys(out.Campaign)) {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "\n    %q: ", name)
		if err := writeLines(&b, out.Campaign[name], "    "); err != nil {
			return err
		}
	}
	b.WriteString("\n  },\n  \"maintenance\": ")
	if err := writeLines(&b, out.Maintenance, "  "); err != nil {
		return err
	}
	b.WriteString("\n}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// writeLines writes xs as a JSON array with one compact element per line.
func writeLines[T any](b *bytes.Buffer, xs []T, indent string) error {
	b.WriteString("[")
	for i, x := range xs {
		line, err := json.Marshal(x)
		if err != nil {
			return err
		}
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(b, "\n%s  %s", indent, line)
	}
	fmt.Fprintf(b, "\n%s]", indent)
	return nil
}
