// Package exhaust is the exhaustive non-interference oracle: the third
// NI backend behind the ni.Oracle interface, alongside the randomized
// and adaptive samplers.
//
// Where the randomized backends draw below-observer-equivalent input
// pairs, this one enumerates. For a fixed public (observable) input
// state, non-interference at observer l demands that every secret
// assignment produce identical observable outputs — so the oracle walks
// the whole secret space with an odometer over the control's
// secret-labeled scalar leaves, runs the compiled engine once per
// assignment, and compares each run's observable outputs against the
// first assignment's. Any mismatch is a constructive proof of
// interference (ProvedInsecure); covering the entire public × secret
// space with no mismatch is a proof of security (ProvedSecure).
//
// Enumeration is bounded by a run budget:
//
//   - total mode: |public| × |secret| ≤ Budget — the full input space is
//     enumerated; a clean sweep proves security over the whole space
//     (Result.Total set).
//   - probe mode: |secret| ≤ Budget but the public side is too wide
//     (every generated control carries 47 bits of low-labeled
//     standard_metadata alone) — every secret assignment is enumerated
//     at each randomly drawn public probe. ProvedSecure then asserts
//     only that no secret can influence the observables at the tested
//     public states (Result.Total stays false — a leak reachable only
//     at an unvisited public state is not excluded); ProvedInsecure
//     witnesses remain outright proofs. Downstream classification keys
//     on Total: only total-mode clean sweeps certify imprecision.
//   - ineligible: the secret space itself exceeds the budget, a secret
//     is int-typed (unbounded), or the experiment shape rules out
//     positional enumeration — Inconclusive, optionally delegating to a
//     sampling Fallback so witnesses can still be found.
package exhaust

import (
	"time"

	"repro/internal/eval"
	"repro/internal/metrics"
	"repro/internal/ni"
)

// DefaultBudget bounds machine runs per observer check when
// Oracle.Budget is zero. Generated nightly-campaign controls enumerate at
// about 2.3M assignments/s on one core of a 2-vCPU x86-64 VM (go1.24), so
// 2^16 runs keep a campaign job's sweep near 30 ms; raise it (up to 2^24,
// about 7 s at that rate) for proof-grade sweeps of a regression corpus.
const DefaultBudget = 1 << 16

// maxDerivedProbes caps the public probes derived from leftover budget
// in probe mode when Oracle.Probes is zero.
const maxDerivedProbes = 16

// Inconclusive reasons (ni.Result.Reason).
const (
	// ReasonSecretBudget: the secret space alone exceeds the run budget.
	ReasonSecretBudget = "width-budget-exceeded"
	// ReasonIntTyped: an int-typed secret input has no finite domain.
	ReasonIntTyped = "int-typed-secret"
	// ReasonOpaque: a parameter type has no enumerable value domain.
	ReasonOpaque = "opaque-typed-input"
	// ReasonMultiPacket: the multi-packet adversary needs sequence
	// enumeration, which the oracle does not attempt.
	ReasonMultiPacket = "multi-packet"
	// ReasonFixedInputs: FixInputs steers trials through a map-shaped
	// path the positional enumerator cannot reproduce.
	ReasonFixedInputs = "fixed-inputs"
	// ReasonDuplicateParams: duplicate parameter names force map-keyed
	// semantics.
	ReasonDuplicateParams = "duplicate-params"
	// ReasonNoCompile: the program only runs on the tree-walking
	// interpreter; enumeration requires the compiled engine.
	ReasonNoCompile = "compile-failed"
	// ReasonRunError: a machine run failed mid-sweep, so the sweep is
	// partial — whatever it covered proves nothing either way.
	ReasonRunError = "machine-run-error"
)

// Oracle is the exhaustive backend. The zero value enumerates with
// DefaultBudget and no fallback.
type Oracle struct {
	// Budget is the maximum machine runs one Check may spend
	// (0 = DefaultBudget). Eligibility and total-vs-probe mode are
	// decided against it before any run happens.
	Budget uint64
	// Probes fixes the number of public probes in probe mode
	// (0 = derived from the budget left after the secret space, capped
	// at 16).
	Probes int
	// Fallback, when non-nil, is consulted for experiments the
	// enumerator cannot touch at all (ineligible shapes, secret space
	// over budget) so sampled witnesses are still found; the combined
	// result keeps Outcome Inconclusive and the enumerator's Reason.
	Fallback ni.Oracle
}

// Name implements ni.Oracle.
func (o Oracle) Name() string { return "exhaustive" }

// Check implements ni.Oracle.
func (o Oracle) Check(e *ni.Experiment, seed int64) (ni.Result, error) {
	budget := o.Budget
	if budget == 0 {
		budget = DefaultBudget
	}
	start := time.Now()
	res, ran, err := o.enumerate(e, seed, budget)
	reg := e.Metrics
	reg.Histogram("exhaust_enumeration_seconds", metrics.DurationBuckets).Observe(time.Since(start).Seconds())
	reg.Counter("exhaust_assignments_total").Add(int64(res.Assignments))
	switch res.Outcome {
	case ni.ProvedSecure:
		reg.Counter("exhaust_proofs_total", "verdict", "secure").Inc()
	case ni.ProvedInsecure:
		reg.Counter("exhaust_proofs_total", "verdict", "insecure").Inc()
	case ni.Inconclusive:
		reg.Counter("exhaust_inconclusive_total", "reason", res.Reason).Inc()
	}
	if err != nil {
		return res, err
	}
	if !ran && o.Fallback != nil {
		// Nothing was enumerated; sample instead, but the verdict's
		// strength stays Inconclusive with the enumerator's reason.
		fres, ferr := o.Fallback.Check(e, seed)
		fres.Outcome = ni.Inconclusive
		fres.Reason = res.Reason
		return fres, ferr
	}
	return res, nil
}

// enumerate plans and runs the sweep; ran reports whether any
// enumeration happened (false for ineligible experiments, which makes
// the fallback worthwhile).
func (o Oracle) enumerate(e *ni.Experiment, seed int64, budget uint64) (ni.Result, bool, error) {
	sweep, reason, err := newSweeper(e)
	if err != nil {
		return ni.Result{}, false, err
	}
	if reason == "" && sweep.secretCount > budget {
		reason = ReasonSecretBudget
	}
	if reason != "" {
		return ni.Result{Outcome: ni.Inconclusive, Reason: reason}, false, nil
	}
	sweep.m, _ = e.Machines(e.Engine())
	p := sweep.plan

	if sweep.total(budget) {
		// Total mode: enumerate the whole public × secret space.
		pub := newOdometer(p, p.publicIdx)
		sec := newOdometer(p, p.secretIdx)
		for {
			vio, err := sweep.secrets(sec)
			if err != nil || vio != nil {
				return sweep.result(vio, true, err), true, err
			}
			if !pub.advance(p) {
				break
			}
		}
		return sweep.result(nil, true, nil), true, nil
	}

	// Probe mode: all secrets per randomly drawn public probe.
	rng := eval.NewBatchRand(seed)
	defer rng.Release()
	sec := newOdometer(p, p.secretIdx)
	for pr, probes := 0, sweep.probes(o.Probes, budget); pr < probes; pr++ {
		p.drawProbe(rng)
		sec.reset(p)
		vio, err := sweep.secrets(sec)
		if err != nil || vio != nil {
			return sweep.result(vio, false, err), true, err
		}
	}
	return sweep.result(nil, false, nil), true, nil
}

// newSweeper plans the experiment's input surface and binds the
// comparators a sweep runs on; the caller checks the budget and binds
// the machine (s.m). A non-empty reason marks the experiment ineligible
// for enumeration.
func newSweeper(e *ni.Experiment) (*sweeper, string, error) {
	if e.Packets > 1 {
		return nil, ReasonMultiPacket, nil
	}
	if e.FixInputs != nil {
		return nil, ReasonFixedInputs, nil
	}
	code := e.Engine()
	if code == nil {
		return nil, ReasonNoCompile, nil
	}
	_, pts, err := e.ControlParams()
	if err != nil {
		return nil, "", err
	}
	cmps, err := e.Comparators()
	if err != nil {
		return nil, "", err
	}
	idx := code.ControlIndex(e.Control)
	if idx < 0 {
		return nil, ReasonNoCompile, nil
	}
	names := code.ParamNames(idx)
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			return nil, ReasonDuplicateParams, nil
		}
		seen[n] = true
	}
	obs := e.Observer
	if obs.IsZero() {
		obs = e.Lat.Bottom()
	}

	p := &plan{lat: e.Lat, obs: obs}
	for _, n := range names {
		root, reason := p.walk(pts[n])
		if reason != "" {
			return nil, reason, nil
		}
		p.params = append(p.params, root)
	}
	s := &sweeper{plan: p, idx: idx, names: names, cmps: cmps,
		args: make([]eval.Value, len(p.params)), secretCount: 1, pubCount: 1}
	for i, lf := range p.leaves {
		switch {
		case lf.radix == 0: // public int: no finite domain, drawn per probe
			p.intLeaves = append(p.intLeaves, i)
			s.pubCount = satInf
		case lf.secret:
			p.secretIdx = append(p.secretIdx, i)
			s.secretCount = satMul(s.secretCount, lf.radix)
		default:
			p.publicIdx = append(p.publicIdx, i)
			s.pubCount = satMul(s.pubCount, lf.radix)
		}
	}
	return s, "", nil
}

// total reports whether the whole public × secret space fits the budget.
func (s *sweeper) total(budget uint64) bool {
	return satMul(s.secretCount, s.pubCount) <= budget
}

// probes is the number of public probes a probe-mode sweep draws:
// requested (0 = maxDerivedProbes), capped by what the budget leaves for
// full secret sweeps, and at least one.
func (s *sweeper) probes(requested int, budget uint64) int {
	probes := requested
	if probes <= 0 {
		probes = maxDerivedProbes
	}
	if s.secretCount > 0 {
		if max := int(budget / s.secretCount); probes > max {
			probes = max
		}
	}
	if probes < 1 {
		probes = 1
	}
	return probes
}

// sweeper runs one enumerated assignment at a time and compares outputs
// against the current public state's baseline. Per assignment it pays
// for restoring the plan's argument trees, the machine run, and the
// compiled comparison — nothing is allocated unless a witness is found.
type sweeper struct {
	plan  *plan
	m     *eval.Machine
	idx   int
	names []string
	cmps  []ni.Comparator // per parameter, at the plan's observer
	args  []eval.Value    // the argument roots, rewritten per run

	// secretCount and pubCount are the sizes of the secret and public
	// spaces, saturating at satInf.
	secretCount, pubCount uint64

	runs    uint64
	base    []eval.Value
	baseSig eval.Signal
}

// secrets enumerates the secret odometer for the current public state.
// The first assignment establishes the baseline observable outputs; any
// later assignment differing in an observable leaf (or signal form) is a
// violation.
func (s *sweeper) secrets(sec *odometer) (*ni.Violation, error) {
	p := s.plan
	first := true
	for {
		for i, root := range p.params {
			s.args[i] = p.restore(root)
		}
		s.m.Reset()
		outs, sig, err := s.m.RunIndexed(s.idx, s.args)
		s.runs++
		if err != nil {
			return nil, err
		}
		if first {
			first = false
			s.base = s.base[:0]
			for _, v := range outs {
				s.base = append(s.base, eval.Copy(v))
			}
			s.baseSig = sig
		} else {
			if sig.Kind != s.baseSig.Kind {
				return &ni.Violation{Trial: int(s.runs), Where: "signal",
					A: s.baseSig.String(), B: sig.String()}, nil
			}
			for i, v := range outs {
				if !s.cmps[i].Equal(s.base[i], v) {
					// Only a witness reaches the heap.
					vio, _ := s.cmps[i].Diff(s.names[i], s.base[i], v)
					vio.Trial = int(s.runs)
					return &vio, nil
				}
			}
		}
		if !sec.advance(p) {
			return nil, nil
		}
	}
}

// result assembles the uniform ni.Result for a finished,
// witness-interrupted, or error-interrupted sweep. An error means the
// sweep is partial, and a partial clean sweep proves nothing — the
// outcome degrades to Inconclusive so no caller can mistake it for a
// certificate. (A witness and an error never arrive together: secrets
// stops at whichever comes first.)
func (s *sweeper) result(vio *ni.Violation, total bool, err error) ni.Result {
	r := ni.Result{
		Trials:      int(s.runs),
		Assignments: s.runs,
		Total:       total,
		Outcome:     ni.ProvedSecure,
	}
	switch {
	case vio != nil:
		r.Violations = []ni.Violation{*vio}
		r.Outcome = ni.ProvedInsecure
	case err != nil:
		r.Outcome = ni.Inconclusive
		r.Reason = ReasonRunError
		r.Total = false
	}
	return r
}
