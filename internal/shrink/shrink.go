// Package shrink minimizes P4 programs by AST-level delta debugging: it
// repeatedly deletes program structure — statements, else-branches, control
// locals (actions, tables, variables), table keys and action refs, header
// and struct fields, top-level declarations — re-prints the candidate with
// ast.Print, and keeps the deletion whenever the caller's predicate still
// holds on the strictly smaller source.
//
// The fuzz-campaign engine uses it to turn a generated finding (often
// hundreds of bytes of noise around a two-line flow violation) into the
// smallest program that still reproduces the finding's verdict class, so a
// corpus entry reads like a regression test rather than a core dump. The
// contract, enforced by construction and locked in by the package tests:
//
//   - the result always parses;
//   - the predicate holds on the result;
//   - the result is never larger than the input (byte length), and is the
//     input itself when no deletion survives the predicate.
//
// Deletion is coarse-to-fine for free: removing an if-statement discards
// its whole subtree in one step, and only if that fails does the shrinker
// descend to flatten the branch or delete inner statements one by one.
// Sweeps repeat until a full pass accepts nothing (a fixpoint), so the
// result is 1-minimal with respect to the deletion operators.
package shrink

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/parser"
)

// Keep reports whether a candidate program still exhibits the property
// being minimized (for campaign findings: classifies into the same verdict
// class). It is called on parseable source text only.
type Keep func(src string) bool

// KeepParsed is Keep handed the parse the shrinker already made of the
// candidate. Each call gets a fresh *ast.Program that the predicate owns:
// it may run the checker stack on it (pipeline.Job.Prog) or retain it,
// and the shrinker never touches it again.
type KeepParsed func(src string, prog *ast.Program) bool

// Result is the outcome of a minimization.
type Result struct {
	// Source is the minimized program text; len(Source) <= len(input).
	Source string
	// Accepted counts deletions that survived the predicate.
	Accepted int
	// Tried counts candidate programs tested.
	Tried int
}

// maxSweeps bounds the fixpoint loop; each productive sweep strictly
// shrinks the program, so this is a backstop, not a tuning knob.
const maxSweeps = 100

// Minimize delta-debugs src against keep. It errors if src does not parse
// or keep rejects src itself; otherwise the Result contract above holds.
func Minimize(file, src string, keep Keep) (Result, error) {
	return MinimizeParsed(file, src, func(s string, _ *ast.Program) bool { return keep(s) })
}

// MinimizeParsed is Minimize for predicates that would parse the candidate
// themselves: every candidate is parsed exactly once, by the shrinker,
// and that parse is handed to keep. The input is parsed twice, once for
// keep and once as the tree the sweeps delete from.
func MinimizeParsed(file, src string, keep KeepParsed) (Result, error) {
	prog, err := parser.Parse(file, src)
	if err != nil {
		return Result{}, fmt.Errorf("shrink: input does not parse: %w", err)
	}
	if !keep(src, prog) {
		return Result{}, fmt.Errorf("shrink: predicate does not hold on the input")
	}
	prog, _ = parser.Parse(file, src) // keep owns the first parse
	m := &minimizer{file: file, prog: prog, best: src, keep: keep}

	// The canonical print often already beats the input's formatting; take
	// it if the predicate agrees, then delete structure from there. Even if
	// it is longer than the input, mutations proceed from the AST — best
	// only ever moves to a strictly smaller keep-holding candidate.
	if canon := ast.Print(prog); len(canon) < len(m.best) && m.ok(canon) {
		m.best = canon
	}
	for i := 0; i < maxSweeps; i++ {
		changed := m.sweepDecls()
		for _, c := range prog.Controls {
			changed = m.sweepLocals(c) || changed
			changed = m.sweepBlock(c.Apply) || changed
		}
		if !changed {
			break
		}
	}
	return Result{Source: m.best, Accepted: m.accepted, Tried: m.tried}, nil
}

type minimizer struct {
	file     string
	prog     *ast.Program
	best     string
	keep     KeepParsed
	accepted int
	tried    int
}

// ok reports whether candidate source reparses and keeps the predicate.
func (m *minimizer) ok(src string) bool {
	m.tried++
	prog, err := parser.Parse(m.file, src)
	if err != nil {
		return false
	}
	return m.keep(src, prog)
}

// try applies mutate, tests the printed program, and calls undo when the
// candidate was rejected. Accepted candidates become best only when
// strictly smaller, but the mutation sticks either way — every deletion
// strictly shrinks the canonical print, so the sweep converges on best.
func (m *minimizer) try(mutate, undo func()) bool {
	mutate()
	src := ast.Print(m.prog)
	if !m.ok(src) {
		undo()
		return false
	}
	m.accepted++
	if len(src) < len(m.best) {
		m.best = src
	}
	return true
}

// removeAt tries deleting slice element i, writing the shortened slice via
// set. It reports acceptance (the caller then re-reads the slice).
func removeAt[T any](m *minimizer, s []T, i int, set func([]T)) bool {
	cut := make([]T, 0, len(s)-1)
	cut = append(cut, s[:i]...)
	cut = append(cut, s[i+1:]...)
	return m.try(func() { set(cut) }, func() { set(s) })
}

// sweepDecls tries deleting top-level declarations and, for header and
// struct declarations, individual fields.
func (m *minimizer) sweepDecls() bool {
	changed := false
	for i := 0; i < len(m.prog.Decls); {
		if removeAt(m, m.prog.Decls, i, func(s []ast.Decl) { m.prog.Decls = s }) {
			changed = true
			continue
		}
		switch d := m.prog.Decls[i].(type) {
		case *ast.HeaderDecl:
			changed = m.sweepFields(&d.Fields) || changed
		case *ast.StructDecl:
			changed = m.sweepFields(&d.Fields) || changed
		}
		i++
	}
	return changed
}

// sweepFields tries deleting individual header/struct fields.
func (m *minimizer) sweepFields(fields *[]ast.FieldDecl) bool {
	changed := false
	for i := 0; i < len(*fields); {
		if removeAt(m, *fields, i, func(s []ast.FieldDecl) { *fields = s }) {
			changed = true
			continue
		}
		i++
	}
	return changed
}

// sweepLocals tries deleting a control's local declarations (variables,
// actions, tables); surviving actions have their bodies swept as blocks
// and surviving tables their keys and action lists.
func (m *minimizer) sweepLocals(c *ast.ControlDecl) bool {
	changed := false
	for i := 0; i < len(c.Locals); {
		if removeAt(m, c.Locals, i, func(s []ast.Decl) { c.Locals = s }) {
			changed = true
			continue
		}
		switch d := c.Locals[i].(type) {
		case *ast.FuncDecl:
			changed = m.sweepBlock(d.Body) || changed
		case *ast.TableDecl:
			changed = m.sweepTable(d) || changed
		}
		i++
	}
	return changed
}

// sweepTable tries deleting table keys, action refs, and the default
// action.
func (m *minimizer) sweepTable(d *ast.TableDecl) bool {
	changed := false
	for i := 0; i < len(d.Keys); {
		if removeAt(m, d.Keys, i, func(s []ast.TableKey) { d.Keys = s }) {
			changed = true
			continue
		}
		i++
	}
	for i := 0; i < len(d.Actions); {
		if removeAt(m, d.Actions, i, func(s []ast.ActionRef) { d.Actions = s }) {
			changed = true
			continue
		}
		i++
	}
	if d.Default != nil {
		old := d.Default
		if m.try(func() { d.Default = nil }, func() { d.Default = old }) {
			changed = true
		}
	}
	return changed
}

// sweepBlock tries, for each statement: deleting it outright; for ifs,
// splicing a branch's statements in place of the whole if, dropping the
// else, and recursing into both branches; for nested blocks, recursing.
func (m *minimizer) sweepBlock(b *ast.BlockStmt) bool {
	if b == nil {
		return false
	}
	changed := false
	for i := 0; i < len(b.Stmts); {
		if removeAt(m, b.Stmts, i, func(s []ast.Stmt) { b.Stmts = s }) {
			changed = true
			continue
		}
		switch s := b.Stmts[i].(type) {
		case *ast.IfStmt:
			if m.spliceIf(b, i, s) {
				changed = true
				continue // re-examine the spliced statements at index i
			}
			changed = m.sweepIf(s) || changed
		case *ast.BlockStmt:
			changed = m.sweepBlock(s) || changed
		}
		i++
	}
	return changed
}

// spliceIf tries replacing b.Stmts[i] (the if) with the statements of its
// then-branch, and failing that, of its else-branch — unguarding the body
// so the condition's taint disappears with it.
func (m *minimizer) spliceIf(b *ast.BlockStmt, i int, s *ast.IfStmt) bool {
	orig := b.Stmts
	splice := func(repl []ast.Stmt) bool {
		next := make([]ast.Stmt, 0, len(orig)-1+len(repl))
		next = append(next, orig[:i]...)
		next = append(next, repl...)
		next = append(next, orig[i+1:]...)
		return m.try(func() { b.Stmts = next }, func() { b.Stmts = orig })
	}
	if s.Then != nil && splice(s.Then.Stmts) {
		return true
	}
	switch e := s.Else.(type) {
	case *ast.BlockStmt:
		return splice(e.Stmts)
	case *ast.IfStmt:
		return splice([]ast.Stmt{e})
	}
	return false
}

// sweepIf shrinks within an if: drop the else entirely, then recurse into
// the branches.
func (m *minimizer) sweepIf(s *ast.IfStmt) bool {
	changed := false
	if s.Else != nil {
		old := s.Else
		if m.try(func() { s.Else = nil }, func() { s.Else = old }) {
			changed = true
		}
	}
	changed = m.sweepBlock(s.Then) || changed
	switch e := s.Else.(type) {
	case *ast.BlockStmt:
		changed = m.sweepBlock(e) || changed
	case *ast.IfStmt:
		changed = m.sweepIf(e) || changed
	}
	return changed
}
