package exhaust

import (
	"testing"

	"repro/internal/controlplane"
	"repro/internal/eval"
	"repro/internal/lattice"
	"repro/internal/ni"
	"repro/internal/parser"
)

// The sweep lends the plan's argument trees to the machine and restores
// them in place before every run. These tests hold that to the
// construction it replaced: a sweep that builds fresh trees for every
// assignment must reach the identical Result on controls that mutate
// their inputs in place.

// build is the reference construction: a fresh argument tree from the
// current leaf slots.
func build(p *plan, n *node) eval.Value {
	if n.leaf >= 0 {
		return p.vals[n.leaf]
	}
	if _, ok := n.val.(*eval.StackVal); ok {
		es := make([]eval.Value, len(n.children))
		for i, c := range n.children {
			es[i] = build(p, c)
		}
		return &eval.StackVal{Elems: es}
	}
	fs := make([]eval.NamedValue, len(n.children))
	for i, c := range n.children {
		fs[i] = eval.NamedValue{Name: n.names[i], Val: build(p, c)}
	}
	if _, ok := n.val.(*eval.HeaderVal); ok {
		return &eval.HeaderVal{Valid: true, Fields: fs}
	}
	return &eval.RecordVal{Fields: fs}
}

// referenceCheck is Oracle.Check (without fallback or metrics) over the
// same plan and enumeration order, running every assignment on freshly
// built trees on a machine of its own.
func referenceCheck(t *testing.T, e *ni.Experiment, o Oracle, seed int64) ni.Result {
	t.Helper()
	budget := o.Budget
	if budget == 0 {
		budget = DefaultBudget
	}
	s, reason, err := newSweeper(e)
	if err != nil || reason != "" || s.secretCount > budget {
		t.Fatalf("reference: ineligible (reason %q, err %v)", reason, err)
	}
	s.m = eval.NewMachine(e.Engine(), controlplane.New())
	p := s.plan
	secrets := func(sec *odometer) (*ni.Violation, error) {
		var base []eval.Value
		var baseSig eval.Signal
		for first := true; ; first = false {
			args := make([]eval.Value, len(p.params))
			for i, root := range p.params {
				args[i] = build(p, root)
			}
			s.m.Reset()
			outs, sig, err := s.m.RunIndexed(s.idx, args)
			s.runs++
			if err != nil {
				return nil, err
			}
			if first {
				for _, v := range outs {
					base = append(base, eval.Copy(v))
				}
				baseSig = sig
			} else {
				if sig.Kind != baseSig.Kind {
					return &ni.Violation{Trial: int(s.runs), Where: "signal", A: baseSig.String(), B: sig.String()}, nil
				}
				for i, v := range outs {
					if vio, ok := s.cmps[i].Diff(s.names[i], base[i], v); !ok {
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
	total := s.total(budget)
	sec := newOdometer(p, p.secretIdx)
	if total {
		pub := newOdometer(p, p.publicIdx)
		for {
			if vio, err := secrets(sec); err != nil || vio != nil {
				return s.result(vio, true, err)
			}
			if !pub.advance(p) {
				return s.result(nil, true, nil)
			}
		}
	}
	rng := eval.NewBatchRand(seed)
	defer rng.Release()
	for pr, probes := 0, s.probes(o.Probes, budget); pr < probes; pr++ {
		p.drawProbe(rng)
		sec.reset(p)
		if vio, err := secrets(sec); err != nil || vio != nil {
			return s.result(vio, false, err)
		}
	}
	return s.result(nil, false, nil)
}

// mutatingControls write their inputs in place in every way the machine
// can: through a header parameter, a stack element, a nested struct
// field, by reassigning a whole parameter, and by exiting partway. Each
// also increments a public field, so a run that inherited the previous
// run's writes would differ from the baseline and report a false
// witness. The language has no setValid/setInvalid; a header parameter
// is replaced wholesale instead.
var mutatingControls = map[string]string{
	"header parameter": `
header data_t {
    <bit<2>, low> lo;
    <bit<2>, high> hi;
    <bool, high> b;
}
control HeaderParam(inout data_t h, inout data_t g) {
    apply {
        h.lo = h.lo + 1;
        h.hi = h.hi + h.lo;
        if (g.lo == 1) {
            h = g;
        }
        g.lo = g.lo + 1;
    }
}
`,
	"stack element": `
header data_t {
    <bit<2>, low> lo;
    <bit<2>, high> hi;
}
struct headers { data_t s[2]; <bool, high> b; }
control StackElem(inout headers hdr) {
    apply {
        hdr.s[0].lo = hdr.s[0].lo + 1;
        hdr.s[1] = hdr.s[0];
        hdr.s[1].hi = hdr.s[1].hi + 1;
        if (hdr.b) {
            hdr.s[1].lo = hdr.s[0].hi;
        }
    }
}
`,
	"nested struct field": `
struct inner_t {
    <bit<2>, low> a;
    <bit<2>, high> s;
}
struct outer_t {
    inner_t i;
    inner_t j;
}
control Nested(inout outer_t o) {
    apply {
        o.i.a = o.i.a + 1;
        o.j.s = o.j.s + o.i.s;
        o.j.a = o.j.a + o.i.a;
    }
}
`,
	"whole parameter": `
header data_t {
    <bit<2>, low> lo;
    <bit<2>, high> hi;
    <bool, high> b;
}
struct headers { data_t d; }
control WholeParam(inout headers hdr, inout data_t h) {
    apply {
        h.lo = h.lo + 1;
        hdr.d = h;
        h = hdr.d;
        h.hi = h.hi + 1;
        if (hdr.d.b) {
            hdr.d.lo = 0;
        }
    }
}
`,
	"exit partway": `
header data_t {
    <bit<2>, low> lo;
    <bit<2>, high> hi;
    <bool, high> b;
}
struct headers { data_t d; }
control ExitPartway(inout headers hdr) {
    apply {
        hdr.d.lo = hdr.d.lo + 1;
        hdr.d.hi = hdr.d.hi + 1;
        if (hdr.d.lo == 2) {
            exit;
        }
        hdr.d.lo = hdr.d.lo + 1;
    }
}
`,
}

func TestRestoreMatchesFreshBuild(t *testing.T) {
	verdicts := map[ni.Outcome]int{}
	for name, src := range mutatingControls {
		for _, mode := range []string{"total", "probe"} {
			t.Run(name+"/"+mode, func(t *testing.T) {
				prog := parser.MustParse("restore_test.p4", src)
				experiment := func() *ni.Experiment { return &ni.Experiment{Prog: prog, Lat: lattice.TwoPoint()} }
				o := Oracle{}
				if mode == "probe" {
					// Room for two full secret sweeps, not the public space.
					s, _, err := newSweeper(experiment())
					if err != nil {
						t.Fatal(err)
					}
					o = Oracle{Budget: 2 * s.secretCount, Probes: 2}
				}
				got, err := o.Check(experiment(), 11)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceCheck(t, experiment(), o, 11)
				if got.Total != (mode == "total") {
					t.Fatalf("Total = %v in %s mode", got.Total, mode)
				}
				if got.Outcome != want.Outcome || got.Total != want.Total || got.Assignments != want.Assignments ||
					got.Trials != want.Trials || len(got.Violations) != len(want.Violations) {
					t.Fatalf("in place: %+v\nfresh:    %+v", got, want)
				}
				for i := range got.Violations {
					if got.Violations[i] != want.Violations[i] {
						t.Fatalf("witness %d: in place %v, fresh %v", i, got.Violations[i], want.Violations[i])
					}
				}
				verdicts[got.Outcome]++
				t.Logf("%v after %d assignments %v", got.Outcome, got.Assignments, got.Violations)
			})
		}
	}
	// Both verdicts must be exercised, or equality proves little.
	if verdicts[ni.ProvedSecure] == 0 || verdicts[ni.ProvedInsecure] == 0 {
		t.Fatalf("verdicts %v: want both proved-secure and proved-insecure sweeps", verdicts)
	}
}

// TestRestoreUndoesSlotWrites mutates the owned trees directly — field
// values and names, stack elements, header validity, which no
// statement of the language can clear — and checks restore gives back
// exactly a fresh build.
func TestRestoreUndoesSlotWrites(t *testing.T) {
	for name, src := range mutatingControls {
		prog := parser.MustParse("restore_test.p4", src)
		s, reason, err := newSweeper(&ni.Experiment{Prog: prog, Lat: lattice.TwoPoint()})
		if err != nil || reason != "" {
			t.Fatalf("%s: reason %q, err %v", name, reason, err)
		}
		p := s.plan
		for i, root := range p.params {
			p.restore(root)
			var scribble func(v eval.Value)
			scribble = func(v eval.Value) {
				switch v := v.(type) {
				case *eval.HeaderVal:
					v.Valid = false
					for j := range v.Fields {
						scribble(v.Fields[j].Val)
						v.Fields[j] = eval.NamedValue{Name: "x", Val: eval.BoolVal(true)}
					}
				case *eval.RecordVal:
					for j := range v.Fields {
						scribble(v.Fields[j].Val)
						v.Fields[j] = eval.NamedValue{Name: "x", Val: eval.BoolVal(true)}
					}
				case *eval.StackVal:
					for j := range v.Elems {
						scribble(v.Elems[j])
						v.Elems[j] = eval.UnitVal{}
					}
				}
			}
			scribble(root.val)
			got, want := p.restore(root), build(p, root)
			if !eval.ValueEqual(got, want) {
				t.Fatalf("%s param %d: restore gave %s, fresh build %s", name, i, got, want)
			}
		}
	}
}
