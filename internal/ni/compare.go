package ni

import (
	"fmt"

	"repro/internal/eval"
	"repro/internal/lattice"
	"repro/internal/types"
)

// Comparator is diffObservable compiled for one parameter type at one
// observer. Lattice queries and field lookups are resolved when it is
// built, subtrees holding no observable leaf compile to nothing and are
// never visited, and record/header fields are compared by position,
// checking in the same pass that the value's field names line up with
// the type's. Values that do not line up (reordered, missing or extra
// fields) take the generic diffObservable walk, so Diff agrees with
// diffObservable on every input.
type Comparator struct {
	root *cmpNode // nil: no observable leaf, every pair agrees
	obs  lattice.Label
	lat  lattice.Lattice
}

// Comparator node kinds.
const (
	cmpLeaf = iota
	cmpRecord
	cmpHeader
	cmpStack
)

// cmpNode is one observable subtree of a parameter type.
type cmpNode struct {
	kind int
	t    types.SecType // record/header: the type, for the generic walk
	// names are the type's field names in declaration order and subs the
	// fields' comparators, nil where a field holds no observable leaf
	// (record/header).
	names []string
	subs  []*cmpNode
	elem  *cmpNode // stack element
}

// newComparator compiles the observable comparison of values of type t
// at observer obs.
func newComparator(t types.SecType, obs lattice.Label, lat lattice.Lattice) Comparator {
	return Comparator{root: compileCmp(t, obs, lat), obs: obs, lat: lat}
}

func compileCmp(t types.SecType, obs lattice.Label, lat lattice.Lattice) *cmpNode {
	if types.IsScalar(t.T) {
		if !lat.Leq(t.L, obs) {
			return nil
		}
		return &cmpNode{kind: cmpLeaf}
	}
	switch tt := t.T.(type) {
	case *types.Record:
		return compileFields(cmpRecord, t, tt.Fields, obs, lat)
	case *types.Header:
		return compileFields(cmpHeader, t, tt.Fields, obs, lat)
	case *types.Stack:
		el := compileCmp(tt.Elem, obs, lat)
		if el == nil {
			return nil
		}
		return &cmpNode{kind: cmpStack, elem: el}
	default:
		return nil
	}
}

// compileFields types position i by FieldOf(names[i]) — the first
// declared field of that name — exactly as diffObs types a value's field,
// so duplicate names in the type need no special case.
func compileFields(kind int, t types.SecType, fields []types.Field, obs lattice.Label, lat lattice.Lattice) *cmpNode {
	n := &cmpNode{kind: kind, t: t, names: make([]string, len(fields)), subs: make([]*cmpNode, len(fields))}
	observable := false
	for i, f := range fields {
		n.names[i] = f.Name
		ft, _ := types.FieldOf(t.T, f.Name)
		n.subs[i] = compileCmp(ft.Type, obs, lat)
		observable = observable || n.subs[i] != nil
	}
	if !observable {
		return nil
	}
	return n
}

// Equal reports whether a and b agree on every observable leaf. It is
// the per-run check: it builds no witness and allocates nothing.
func (c *Comparator) Equal(a, b eval.Value) bool {
	return c.root == nil || c.equal(c.root, a, b, nil)
}

// Diff is Equal returning the witness on a mismatch, Where prefixed with
// path.
func (c *Comparator) Diff(path string, a, b eval.Value) (Violation, bool) {
	v, ok := c.diff(a, b)
	if !ok {
		v.Where = path + v.Where
	}
	return v, ok
}

// diff is Diff with the witness path relative to the parameter.
func (c *Comparator) diff(a, b eval.Value) (Violation, bool) {
	var v Violation
	if c.root == nil || c.equal(c.root, a, b, &v) {
		return Violation{}, true
	}
	return v, false
}

// equal reports whether a and b agree on n's observable leaves. On a
// mismatch it fills w, when non-nil, with the witness, its Where the path
// below n, prefixed one step at a time as the failure unwinds.
func (c *Comparator) equal(n *cmpNode, a, b eval.Value, w *Violation) bool {
	switch n.kind {
	case cmpLeaf:
		if eval.ValueEqual(a, b) {
			return true
		}
		if w != nil {
			w.A, w.B = a.String(), b.String()
		}
		return false
	case cmpRecord:
		ra, ok1 := a.(*eval.RecordVal)
		rb, ok2 := b.(*eval.RecordVal)
		return !ok1 || !ok2 || c.equalFields(n, ra.Fields, rb.Fields, a, b, w)
	case cmpHeader:
		ha, ok1 := a.(*eval.HeaderVal)
		hb, ok2 := b.(*eval.HeaderVal)
		return !ok1 || !ok2 || c.equalFields(n, ha.Fields, hb.Fields, a, b, w)
	default: // cmpStack
		sa, ok1 := a.(*eval.StackVal)
		sb, ok2 := b.(*eval.StackVal)
		if !ok1 || !ok2 || len(sa.Elems) != len(sb.Elems) {
			return true
		}
		for i := range sa.Elems {
			if !c.equal(n.elem, sa.Elems[i], sb.Elems[i], w) {
				if w != nil {
					w.Where = fmt.Sprintf("[%d]%s", i, w.Where)
				}
				return false
			}
		}
		return true
	}
}

// equalFields compares two field lists position by position, checking
// on the way that a's names line up with the type's; b must have as many
// fields. A value that does not line up takes the generic walk, which
// agrees on the positions already compared, so the first mismatch (and
// its witness) is the one diffObs finds.
func (c *Comparator) equalFields(n *cmpNode, fa, fb []eval.NamedValue, a, b eval.Value, w *Violation) bool {
	if len(fa) != len(n.names) || len(fb) != len(n.names) {
		return c.generic(n, a, b, w)
	}
	for i, name := range n.names {
		if fa[i].Name != name {
			return c.generic(n, a, b, w)
		}
		// Matching leaves are settled here, saving a call per field.
		sub := n.subs[i]
		if sub == nil || sub.kind == cmpLeaf && eval.ValueEqual(fa[i].Val, fb[i].Val) {
			continue
		}
		if !c.equal(sub, fa[i].Val, fb[i].Val, w) {
			if w != nil {
				w.Where = "." + name + w.Where
			}
			return false
		}
	}
	return true
}

// generic is diffObs at n, for values whose fields do not line up.
func (c *Comparator) generic(n *cmpNode, a, b eval.Value, w *Violation) bool {
	v, ok := diffObs(a, b, n.t, c.obs, c.lat)
	if !ok && w != nil {
		*w = v
	}
	return ok
}
