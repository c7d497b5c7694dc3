package difftest

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/lattice"
)

// TestGenerateMatchesSerialReference checks that parallel generation is
// invisible: at every worker count, program i is exactly what a fresh
// generator seeded with Seed+i produces.
func TestGenerateMatchesSerialReference(t *testing.T) {
	const n, seed = 120, 4242
	gcfg := gen.DefaultConfig()
	lat := lattice.TwoPoint()
	for _, workers := range []int{1, 2, 8} {
		jobs := generate(context.Background(), Config{N: n, Seed: seed, Workers: workers}, gcfg, lat)
		if len(jobs) != n {
			t.Fatalf("workers=%d: generated %d of %d programs", workers, len(jobs), n)
		}
		for i, job := range jobs {
			want := gen.Random(rand.New(rand.NewSource(seed+int64(i))), gcfg)
			if job.Source != want {
				t.Fatalf("workers=%d: program %d differs from the serial reference", workers, i)
			}
			if job.Lat != lat {
				t.Fatalf("workers=%d: program %d has the wrong lattice", workers, i)
			}
		}
	}
}

// cancelAfter is a context whose Err reports cancellation after a fixed
// number of calls, so a test can stop generation part way through without
// depending on timing.
type cancelAfter struct {
	context.Context
	left atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestGenerateStopsOnCancel checks that generation stops once ctx is
// cancelled and returns a dense prefix: every program below the returned
// length is present and correct.
func TestGenerateStopsOnCancel(t *testing.T) {
	const n, seed = 10000, 7
	gcfg := gen.DefaultConfig()
	for _, workers := range []int{1, 3} {
		ctx := &cancelAfter{Context: context.Background()}
		ctx.left.Store(25)
		jobs := generate(ctx, Config{N: n, Seed: seed, Workers: workers}, gcfg, lattice.TwoPoint())
		if len(jobs) == 0 || len(jobs) > 25 {
			t.Fatalf("workers=%d: generated %d programs, want between 1 and 25", workers, len(jobs))
		}
		for i, job := range jobs {
			if want := gen.Random(rand.New(rand.NewSource(seed+int64(i))), gcfg); job.Source != want {
				t.Fatalf("workers=%d: program %d of the prefix is missing or wrong", workers, i)
			}
		}
	}
}
