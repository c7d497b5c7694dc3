package eval_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/parser"
)

// errHeader declares what every runtime-error program below works on: a
// header with two bit<8> fields, a bool, and a two-element stack.
const errHeader = `
header h_t { <bit<8>, low> a; <bit<8>, low> b; <bool, low> f; <bit<8>, low> s[2]; }
struct headers { h_t h; }
`

// errControl wraps locals and an apply body in the control the error
// programs run.
func errControl(locals, body string) string {
	return errHeader + "control Main(inout headers hdr, inout standard_metadata_t standard_metadata) {\n" +
		locals + "    apply {\n" + body + "\n    }\n}\n"
}

// fuelProgram nests 21 levels of actions that each call the next level
// twice: about 2^21 statements, past DefaultFuel (2^20), with every call
// well inside MaxCallDepth.
func fuelProgram() string {
	var b strings.Builder
	for i := 0; i < 21; i++ {
		fmt.Fprintf(&b, "    action a%d() { a%d(); a%d(); }\n", i, i+1, i+1)
	}
	b.WriteString("    action a21() { }\n")
	return errControl(b.String(), "        a0();")
}

// TestCompiledRuntimeErrorsMatchInterpreter pins one runtime error per
// site the compiled engine reports: the compiled error must equal the
// interpreter's byte for byte, position included, and both must equal the
// golden text. The compiled engine formats these messages only when the
// error occurs, from positions captured at compile time; generated
// programs rarely fail at run time, so the differential tests alone would
// seldom reach these paths.
func TestCompiledRuntimeErrorsMatchInterpreter(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"fuel exhausted", fuelProgram(),
			"err.p4:25:20: evaluation fuel exhausted"},
		{"undeclared r-value", errControl("", "        hdr.h.a = nope;"),
			`err.p4:6:19: undeclared variable "nope"`},
		{"undeclared l-value base", errControl("", "        nope.x = 1;"),
			`err.p4:6:9: undeclared variable "nope"`},
		{"undeclared l-value base after index", errControl("", "        nope[hdr.h.a] = 1;"),
			`err.p4:6:9: undeclared variable "nope"`},
		{"member projection: no field", errControl("", "        hdr.h.a = hdr.h.zz;"),
			`err.p4:6:24: value header{valid = true, a = 8w0, b = 8w0, f = false, s = stack[8w0, 8w0]} has no field "zz"`},
		{"index projection: not indexable", errControl("", "        hdr.h.a = hdr.h.b[0];"),
			"err.p4:6:26: value 8w0 is not indexable"},
		{"index projection: not a number", errControl("", "        hdr.h.a = hdr.h.s[hdr.h.f];"),
			"err.p4:6:26: index evaluated to false, not a number"},
		{"index projection: negative", errControl("", "        hdr.h.a = hdr.h.s[0 - 1];"),
			"err.p4:6:26: negative index -1"},
		{"l-value index: not a number", errControl("", "        hdr.h.s[hdr.h.f] = 1;"),
			"err.p4:6:16: index evaluated to false, not a number"},
		{"l-value write: no field", errControl("", "        hdr.h.zz = 1;"),
			`err.p4:6:9: value header{valid = true, a = 8w0, b = 8w0, f = false, s = stack[8w0, 8w0]} has no field "zz"`},
		{"l-value write: not indexable", errControl("", "        hdr.h.a[0] = 1;"),
			"err.p4:6:9: value 8w0 is not indexable"},
		{"l-value read: no field", errControl("    action inc(inout <bit<8>, low> x) { x = x + 1; }\n", "        inc(hdr.h.zz);"),
			`err.p4:7:13: value header{valid = true, a = 8w0, b = 8w0, f = false, s = stack[8w0, 8w0]} has no field "zz"`},
		{"not an l-value", errControl("    action inc(inout <bit<8>, low> x) { x = x + 1; }\n", "        inc(hdr.h.a + 1);"),
			"err.p4:7:21: (hdr.h.a + 1) is not an l-value"},
		{"if condition not bool", errControl("", "        if (hdr.h.a) { hdr.h.b = 1; }"),
			"err.p4:6:9: if condition evaluated to 8w0, not bool"},
		{"unary !", errControl("", "        hdr.h.f = !hdr.h.a;"),
			"err.p4:6:19: ! on 8w0"},
		{"unary -", errControl("", "        hdr.h.a = -hdr.h.f;"),
			"err.p4:6:19: - on false"},
		{"unary ~", errControl("", "        hdr.h.a = ~hdr.h.f;"),
			"err.p4:6:19: ~ on false"},
		{"binary && left", errControl("", "        hdr.h.f = hdr.h.a && hdr.h.f;"),
			"err.p4:6:27: && on 8w0"},
		{"binary || right", errControl("", "        hdr.h.f = hdr.h.f || hdr.h.a;"),
			"err.p4:6:27: || on 8w0"},
		{"binary operand types", errControl("", "        hdr.h.a = hdr.h.a + hdr.h.f;"),
			"err.p4:6:27: operator + on 8w0 and false"},
		{"binary operator undefined on int", errControl("", "        if (3 & 5 == 1) { hdr.h.b = 1; }"),
			"err.p4:6:15: operator & undefined on int"},
		{"int division by zero", errControl("", "        if (5 / 0 == 1) { hdr.h.b = 1; }"),
			"err.p4:6:15: division by zero"},
		{"int modulo by zero", errControl("", "        if (5 % 0 == 1) { hdr.h.b = 1; }"),
			"err.p4:6:15: modulo by zero"},
		{"bit division by zero", errControl("", "        hdr.h.a = hdr.h.b / hdr.h.a;"),
			"err.p4:6:27: division by zero"},
		{"bit modulo by zero", errControl("", "        hdr.h.a = hdr.h.b % hdr.h.a;"),
			"err.p4:6:27: modulo by zero"},
		{"not a table", errControl("", "        hdr.apply();"),
			"err.p4:6:9: {h = header{valid = true, a = 8w0, b = 8w0, f = false, s = stack[8w0, 8w0]}} is not a table"},
		{"not callable in a statement", errControl("", "        hdr.h.a();"),
			"err.p4:6:16: 8w0 is not callable"},
		{"not callable in an expression", errControl("", "        hdr.h.a = hdr.h.b();"),
			"err.p4:6:26: 8w0 is not callable"},
		{"exit inside an expression call", errControl(
			"    function <bit<8>, low> bail() { exit; return 1; }\n", "        hdr.h.a = bail();"),
			"err.p4:7:23: exit inside an expression call"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := parser.MustParse("err.p4", tc.src)
			in, err := eval.New(prog, nil)
			if err != nil {
				t.Fatalf("eval.New: %v", err)
			}
			_, _, errI := in.RunControl("", nil)
			code, err := eval.Compile(prog)
			if err != nil {
				t.Fatalf("eval.Compile: %v", err)
			}
			_, _, errC := eval.NewMachine(code, nil).RunControl("", nil)
			if errI == nil || errC == nil {
				t.Fatalf("want a runtime error from both engines; interp: %v, compiled: %v", errI, errC)
			}
			if errC.Error() != errI.Error() {
				t.Errorf("engines disagree:\n  interp:   %s\n  compiled: %s", errI, errC)
			}
			if errI.Error() != tc.want {
				t.Errorf("interp error:\n  got:  %s\n  want: %s", errI, tc.want)
			}
		})
	}
}
