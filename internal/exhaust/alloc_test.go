package exhaust

import (
	"fmt"
	"testing"

	"repro/internal/lattice"
	"repro/internal/ni"
	"repro/internal/parser"
)

// benchSrc is the p4bench -exhaust workload (internal/bench) at secret
// width w: a bit<w> and a bool secret, a 2-bit public field.
func benchSrc(w int) string {
	return fmt.Sprintf(`
header data_t {
    <bit<2>, low> lo;
    <bit<%d>, high> hi;
    <bool, high> bhi;
}
struct headers { data_t d; }
control Bench(inout headers hdr) {
    apply {
        if (hdr.d.bhi) {
            hdr.d.lo = (hdr.d.lo ^ 2w0);
        }
    }
}
`, w)
}

// TestSweepAllocsDoNotGrowWithAssignments: a total sweep allocates per
// sweep (plan, trees, one baseline per public state), never per
// assignment — width 8 runs 16× width 4's assignments on the same
// allocations.
func TestSweepAllocsDoNotGrowWithAssignments(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	sweep := func(width int) (allocs float64, assignments uint64) {
		e := &ni.Experiment{Prog: parser.MustParse("exhaust-bench.p4", benchSrc(width)), Lat: lattice.TwoPoint()}
		o := Oracle{Budget: 1 << 22}
		allocs = testing.AllocsPerRun(5, func() {
			res, err := o.Check(e, 1)
			if err != nil || res.Outcome != ni.ProvedSecure || !res.Total {
				t.Fatalf("width %d: %+v, %v", width, res, err)
			}
			assignments = res.Assignments
		})
		return allocs, assignments
	}
	a4, n4 := sweep(4)
	a8, n8 := sweep(8)
	if n8 != 16*n4 {
		t.Fatalf("assignments: width 4 %d, width 8 %d", n4, n8)
	}
	t.Logf("allocations per sweep: width 4 (%d assignments) %.0f, width 8 (%d assignments) %.0f", n4, a4, n8, a8)
	if a8 > a4 {
		t.Fatalf("width 8 allocated %.0f times per sweep, width 4 %.0f: allocation grows with assignments", a8, a4)
	}
}
