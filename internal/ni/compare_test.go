package ni

import (
	"math/rand"
	"testing"

	"repro/internal/eval"
	"repro/internal/lattice"
	"repro/internal/types"
)

// The compiled comparator must be diffObservable, not an approximation of
// it: same verdict, same witness path, same rendered values, on every
// pair of values — including values whose shape does not match the type.

// genType draws a parameter type: bool and bit leaves under records,
// headers and stacks, labels drawn from the lattice. Field names come
// from a pool of three, so records sometimes declare a name twice.
func genType(r *rand.Rand, lat lattice.Lattice, depth int) types.SecType {
	labels := lat.Elements()
	lbl := labels[r.Intn(len(labels))]
	if depth == 0 || r.Intn(3) == 0 {
		if r.Intn(3) == 0 {
			return types.SecType{T: types.Bool{}, L: lbl}
		}
		return types.SecType{T: types.Bit{W: 1 + r.Intn(4)}, L: lbl}
	}
	switch r.Intn(3) {
	case 0:
		return types.SecType{T: &types.Stack{Elem: genType(r, lat, depth-1), Size: r.Intn(4)}, L: lbl}
	default:
		fields := make([]types.Field, r.Intn(5))
		for i := range fields {
			fields[i] = types.Field{Name: string(rune('a' + r.Intn(3))), Type: genType(r, lat, depth-1)}
		}
		if r.Intn(2) == 0 {
			return types.SecType{T: &types.Header{Fields: fields}, L: lbl}
		}
		return types.SecType{T: &types.Record{Fields: fields}, L: lbl}
	}
}

// perturb returns a copy of v with random edits: leaves redrawn, fields
// reordered, dropped, added or renamed, records and headers swapped,
// stacks grown or shrunk.
func perturb(r *rand.Rand, v eval.Value) eval.Value {
	leaf := func() eval.Value {
		if r.Intn(2) == 0 {
			return eval.BoolVal(r.Intn(2) == 0)
		}
		return eval.NewBit(1+r.Intn(4), uint64(r.Intn(16)))
	}
	editFields := func(fs []eval.NamedValue) []eval.NamedValue {
		out := make([]eval.NamedValue, len(fs))
		for i, f := range fs {
			out[i] = eval.NamedValue{Name: f.Name, Val: perturb(r, f.Val)}
		}
		switch r.Intn(8) {
		case 0:
			if len(out) > 1 {
				i, j := r.Intn(len(out)), r.Intn(len(out))
				out[i], out[j] = out[j], out[i]
			}
		case 1:
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		case 2:
			out = append(out, eval.NamedValue{Name: string(rune('a' + r.Intn(4))), Val: leaf()})
		case 3:
			if len(out) > 0 {
				out[r.Intn(len(out))].Name = "z"
			}
		}
		return out
	}
	switch v := v.(type) {
	case *eval.RecordVal:
		fs := editFields(v.Fields)
		if r.Intn(10) == 0 {
			return &eval.HeaderVal{Valid: true, Fields: fs}
		}
		return &eval.RecordVal{Fields: fs}
	case *eval.HeaderVal:
		fs := editFields(v.Fields)
		if r.Intn(10) == 0 {
			return &eval.RecordVal{Fields: fs}
		}
		return &eval.HeaderVal{Valid: v.Valid, Fields: fs}
	case *eval.StackVal:
		es := make([]eval.Value, len(v.Elems))
		for i, e := range v.Elems {
			es[i] = perturb(r, e)
		}
		switch r.Intn(8) {
		case 0:
			if len(es) > 0 {
				es = es[:len(es)-1]
			}
		case 1:
			if len(es) > 0 {
				es = append(es, eval.Copy(es[0]))
			}
		}
		return &eval.StackVal{Elems: es}
	default:
		if r.Intn(4) == 0 {
			return leaf()
		}
		return v
	}
}

// agree checks Comparator against diffObservable on one pair.
func agree(t *testing.T, st types.SecType, obs lattice.Label, lat lattice.Lattice, a, b eval.Value) {
	t.Helper()
	c := newComparator(st, obs, lat)
	want, wantOK := diffObservable("p", a, b, st, obs, lat)
	got, gotOK := c.Diff("p", a, b)
	if got != want || gotOK != wantOK {
		t.Fatalf("type %s at %s:\n a = %s\n b = %s\ncompiled (%v, %+v), diffObservable (%v, %+v)",
			st, obs, a, b, gotOK, got, wantOK, want)
	}
	if eq := c.Equal(a, b); eq != wantOK {
		t.Fatalf("type %s at %s: Equal = %v, diffObservable ok = %v\n a = %s\n b = %s", st, obs, eq, wantOK, a, b)
	}
}

func TestComparatorMatchesDiffObservable(t *testing.T) {
	lats := []lattice.Lattice{lattice.TwoPoint(), lattice.Chain(4)}
	r := rand.New(rand.NewSource(1))
	mismatches := 0
	for _, lat := range lats {
		for i := 0; i < 3000; i++ {
			st := genType(r, lat, 3)
			a := eval.RandomFrom(st.T, r)
			b := eval.RandomFrom(st.T, r)
			if r.Intn(2) == 0 {
				b = perturb(r, eval.Copy(a))
			}
			if r.Intn(4) == 0 {
				a = perturb(r, a)
			}
			for _, obs := range lat.Elements() {
				agree(t, st, obs, lat, a, b)
				if _, ok := diffObservable("p", a, b, st, obs, lat); !ok {
					mismatches++
				}
			}
		}
	}
	// The property is vacuous if the generator never produces a witness.
	if mismatches < 1000 {
		t.Fatalf("only %d differing pairs generated", mismatches)
	}
}

func TestComparatorCraftedShapes(t *testing.T) {
	lat := lattice.TwoPoint()
	low, high := lat.Bottom(), lat.Top()
	bit := func(v uint64) eval.Value { return eval.NewBit(4, v) }
	lo := types.SecType{T: types.Bit{W: 4}, L: low}
	hi := types.SecType{T: types.Bit{W: 4}, L: high}
	rec := types.SecType{T: &types.Record{Fields: []types.Field{{Name: "x", Type: lo}, {Name: "y", Type: hi}, {Name: "z", Type: lo}}}, L: low}
	hdr := types.SecType{T: &types.Header{Fields: rec.T.(*types.Record).Fields}, L: low}
	r := func(fs ...eval.NamedValue) eval.Value { return &eval.RecordVal{Fields: fs} }
	h := func(fs ...eval.NamedValue) eval.Value { return &eval.HeaderVal{Valid: true, Fields: fs} }
	f := func(n string, v uint64) eval.NamedValue { return eval.NamedValue{Name: n, Val: bit(v)} }
	dup := types.SecType{T: &types.Record{Fields: []types.Field{{Name: "x", Type: hi}, {Name: "x", Type: lo}}}, L: low}
	secret := types.SecType{T: &types.Record{Fields: []types.Field{
		{Name: "s", Type: types.SecType{T: &types.Stack{Elem: hi, Size: 2}, L: high}}, {Name: "t", Type: hi}}}, L: low}
	stack := types.SecType{T: &types.Stack{Elem: rec, Size: 2}, L: low}

	cases := []struct {
		name string
		st   types.SecType
		a, b eval.Value
	}{
		{"aligned equal", rec, r(f("x", 1), f("y", 2), f("z", 3)), r(f("x", 1), f("y", 9), f("z", 3))},
		{"aligned differ", rec, r(f("x", 1), f("y", 2), f("z", 3)), r(f("x", 1), f("y", 2), f("z", 4))},
		{"reordered a", rec, r(f("z", 1), f("y", 2), f("x", 3)), r(f("x", 1), f("y", 2), f("z", 3))},
		{"reordered b", rec, r(f("x", 1), f("y", 2), f("z", 3)), r(f("z", 3), f("y", 2), f("x", 1))},
		{"reordered secret first", rec, r(f("y", 1), f("x", 2), f("z", 3)), r(f("y", 2), f("x", 1), f("z", 3))},
		{"missing in a", rec, r(f("x", 1), f("y", 2)), r(f("x", 5), f("y", 2), f("z", 3))},
		{"missing in b", rec, r(f("x", 1), f("y", 2), f("z", 3)), r(f("x", 1), f("y", 2))},
		{"extra in a", rec, r(f("x", 1), f("y", 2), f("z", 3), f("w", 4)), r(f("x", 1), f("y", 2), f("z", 3), f("w", 5))},
		{"extra unknown differs", rec, r(f("w", 1), f("x", 2), f("y", 2), f("z", 3)), r(f("w", 2), f("x", 2), f("y", 2), f("z", 9))},
		{"record vs header", rec, r(f("x", 1), f("y", 2), f("z", 3)), h(f("x", 2), f("y", 2), f("z", 3))},
		{"header vs record", hdr, h(f("x", 1), f("y", 2), f("z", 3)), r(f("x", 2), f("y", 2), f("z", 3))},
		{"header differ", hdr, h(f("x", 1), f("y", 2), f("z", 3)), h(f("x", 2), f("y", 2), f("z", 3))},
		{"header validity ignored", hdr, h(f("x", 1), f("y", 2), f("z", 3)),
			&eval.HeaderVal{Valid: false, Fields: []eval.NamedValue{f("x", 1), f("y", 2), f("z", 3)}}},
		{"stack lengths differ", stack, &eval.StackVal{Elems: []eval.Value{r(f("x", 1), f("y", 2), f("z", 3))}},
			&eval.StackVal{Elems: []eval.Value{r(f("x", 2), f("y", 2), f("z", 3)), r(f("x", 1), f("y", 2), f("z", 3))}}},
		{"stack element differs", stack,
			&eval.StackVal{Elems: []eval.Value{r(f("x", 1), f("y", 2), f("z", 3)), r(f("x", 1), f("y", 2), f("z", 3))}},
			&eval.StackVal{Elems: []eval.Value{r(f("x", 1), f("y", 5), f("z", 3)), r(f("x", 1), f("y", 2), f("z", 7))}}},
		{"duplicate names, first secret", dup, r(f("x", 1), f("x", 2)), r(f("x", 3), f("x", 4))},
		{"duplicate names, equal", dup, r(f("x", 1), f("x", 2)), r(f("x", 1), f("x", 2))},
		{"all-secret subtree differs", secret,
			r(eval.NamedValue{Name: "s", Val: &eval.StackVal{Elems: []eval.Value{bit(1), bit(2)}}}, f("t", 1)),
			r(eval.NamedValue{Name: "s", Val: &eval.StackVal{Elems: []eval.Value{bit(3)}}}, f("t", 9))},
		{"leaf where a record belongs", rec, bit(1), bit(2)},
		{"leaf type mismatch", lo, bit(1), eval.NewBit(8, 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, obs := range []lattice.Label{low, high} {
				agree(t, tc.st, obs, lat, tc.a, tc.b)
			}
		})
	}
}

// TestComparatorEqualAllocs: comparing matching values allocates nothing,
// whatever the type's shape.
func TestComparatorEqualAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	lat := lattice.TwoPoint()
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		st := genType(r, lat, 3)
		a := eval.RandomFrom(st.T, r)
		b := eval.Copy(a)
		c := newComparator(st, lat.Bottom(), lat)
		if n := testing.AllocsPerRun(20, func() { c.Equal(a, b) }); n != 0 {
			t.Fatalf("type %s: Equal allocated %.0f times per call", st, n)
		}
	}
}
