package shrink_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/basecheck"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/parser"
	"repro/internal/resolve"
	"repro/internal/shrink"
)

// verdictClass is the static slice of the campaign's verdict classes: it
// distinguishes frontend failures, baseline rejections, and IFC
// accept/reject, which is what a shrunken finding must preserve.
func verdictClass(src string) string {
	prog, err := parser.Parse("cand.p4", src)
	if err != nil {
		return "parse-error"
	}
	lat := lattice.TwoPoint()
	var diags diag.List
	res := resolve.New(lat, &diags)
	res.CollectTypeDecls(prog)
	if diags.Err() != nil {
		return "resolve-error"
	}
	if !basecheck.Check(prog).OK {
		return "base-reject"
	}
	if core.Check(prog, lat).OK {
		return "accept"
	}
	return "reject"
}

// TestMinimizeProperties: over generated programs, the shrinker's contract
// holds — the result parses, classifies identically, and never grows.
func TestMinimizeProperties(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	cfg := gen.DefaultConfig()
	shrunk, saved := 0, 0
	for seed := 0; seed < seeds; seed++ {
		src := gen.Random(rand.New(rand.NewSource(int64(seed))), cfg)
		class := verdictClass(src)
		keep := func(cand string) bool { return verdictClass(cand) == class }

		res, err := shrink.Minimize(fmt.Sprintf("seed-%d.p4", seed), src, keep)
		if err != nil {
			t.Fatalf("seed %d: Minimize: %v", seed, err)
		}
		if len(res.Source) > len(src) {
			t.Errorf("seed %d: result grew: %d bytes from %d", seed, len(res.Source), len(src))
		}
		if _, err := parser.Parse("min.p4", res.Source); err != nil {
			t.Errorf("seed %d: result does not parse: %v\n%s", seed, err, res.Source)
		}
		if got := verdictClass(res.Source); got != class {
			t.Errorf("seed %d: verdict class changed %s -> %s\n%s", seed, class, got, res.Source)
		}
		if len(res.Source) < len(src) {
			shrunk++
			saved += len(src) - len(res.Source)
		}
	}
	// Generated programs carry plenty of dead weight; if next to none
	// shrink, the sweeps are broken even though the contract holds.
	if shrunk < seeds/2 {
		t.Errorf("only %d/%d programs shrank", shrunk, seeds)
	}
	t.Logf("%d/%d programs shrank, %d bytes saved total", shrunk, seeds, saved)
}

// TestMinimizeExtractsCoreViolation: a rejected program padded with noise
// must shrink to a far smaller program that is still rejected, and the
// offending flow must survive the shrinking (nothing else explains a
// rejection in the residue).
func TestMinimizeExtractsCoreViolation(t *testing.T) {
	src := `
header data_t {
    <bit<8>, low> lo0;
    <bit<8>, low> lo1;
    <bit<8>, high> hi0;
    <bit<8>, high> hi1;
    <bool, low> blo;
}
struct headers { data_t d; }
control Noise(inout headers hdr, inout standard_metadata_t standard_metadata) {
    action benign() {
        hdr.d.hi1 = hdr.d.hi0 + 8w1;
    }
    apply {
        hdr.d.lo1 = hdr.d.lo0 + 8w3;
        benign();
        if (hdr.d.blo) {
            hdr.d.hi0 = hdr.d.hi1 & 8w7;
            hdr.d.lo0 = hdr.d.hi0;
        } else {
            hdr.d.lo1 = 8w9;
        }
        hdr.d.hi1 = hdr.d.hi0 | 8w2;
    }
}
`
	if verdictClass(src) != "reject" {
		t.Fatal("fixture must be IFC-rejected")
	}
	keep := func(cand string) bool { return verdictClass(cand) == "reject" }
	res, err := shrink.Minimize("noise.p4", src, keep)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	if len(res.Source) >= len(src)/2 {
		t.Errorf("expected a large reduction, got %d bytes from %d:\n%s", len(res.Source), len(src), res.Source)
	}
	if !strings.Contains(res.Source, "hdr.d.lo0 = hdr.d.hi0") {
		t.Errorf("the explicit flow violation did not survive shrinking:\n%s", res.Source)
	}
	if res.Accepted == 0 || res.Tried < res.Accepted {
		t.Errorf("implausible counters: accepted %d, tried %d", res.Accepted, res.Tried)
	}
}

// TestMinimizeInputErrors: unparseable input and a predicate that rejects
// the input itself are caller errors, not empty results.
func TestMinimizeInputErrors(t *testing.T) {
	if _, err := shrink.Minimize("bad.p4", "control {{{", func(string) bool { return true }); err == nil {
		t.Error("expected an error for unparseable input")
	}
	src := "header data_t { <bit<8>, low> lo; }\nstruct headers { data_t d; }\ncontrol C(inout headers hdr) { apply { hdr.d.lo = 8w1; } }\n"
	if _, err := shrink.Minimize("c.p4", src, func(string) bool { return false }); err == nil {
		t.Error("expected an error when the predicate rejects the input")
	}
}

// TestMinimizeAlreadyMinimal: when nothing can be deleted, the input comes
// back byte-identical.
func TestMinimizeAlreadyMinimal(t *testing.T) {
	src := `header data_t {
    <bit<8>, high> hi;
    <bit<8>, low> lo;
}
struct headers { data_t d; }
control Min(inout headers hdr) {
    apply {
        hdr.d.lo = hdr.d.hi;
    }
}
`
	keep := func(cand string) bool { return verdictClass(cand) == "reject" }
	res, err := shrink.Minimize("min.p4", src, keep)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	if got := verdictClass(res.Source); got != "reject" {
		t.Fatalf("verdict class changed to %s", got)
	}
	if len(res.Source) > len(src) {
		t.Errorf("result grew from %d to %d bytes", len(src), len(res.Source))
	}
}

// TestMinimizeParsedReplaysMinimize: MinimizeParsed tries the same
// candidates in the same order as Minimize and lands on the same result.
// Each call hands keep its own fresh parse of the candidate, which keep
// may scribble over without disturbing the shrink.
func TestMinimizeParsedReplaysMinimize(t *testing.T) {
	cfg := gen.DefaultConfig()
	for seed := int64(0); seed < 8; seed++ {
		src := gen.Random(rand.New(rand.NewSource(seed)), cfg)
		class := verdictClass(src)
		var plainCands, parsedCands []string
		plain, err := shrink.Minimize("p.p4", src, func(cand string) bool {
			plainCands = append(plainCands, cand)
			return verdictClass(cand) == class
		})
		if err != nil {
			t.Fatalf("seed %d: Minimize: %v", seed, err)
		}
		seen := map[*ast.Program]bool{}
		parsed, err := shrink.MinimizeParsed("p.p4", src, func(cand string, prog *ast.Program) bool {
			parsedCands = append(parsedCands, cand)
			if seen[prog] {
				t.Fatalf("seed %d: keep was handed the same tree twice", seed)
			}
			seen[prog] = true
			if want, _ := parser.Parse("p.p4", cand); ast.Print(prog) != ast.Print(want) {
				t.Fatalf("seed %d: handed tree does not print like the candidate's parse", seed)
			}
			ok := verdictClass(cand) == class
			prog.Decls, prog.Controls = nil, nil // keep owns it
			return ok
		})
		if err != nil {
			t.Fatalf("seed %d: MinimizeParsed: %v", seed, err)
		}
		if parsed != plain {
			t.Errorf("seed %d: MinimizeParsed = %+v, Minimize = %+v", seed, parsed, plain)
		}
		if strings.Join(parsedCands, "\x00") != strings.Join(plainCands, "\x00") {
			t.Errorf("seed %d: MinimizeParsed tried %d candidates, Minimize %d, or in another order",
				seed, len(parsedCands), len(plainCands))
		}
	}
}
