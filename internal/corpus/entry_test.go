package corpus

import (
	"sync"
	"testing"
)

// TestRemoveLeavesNoRemovedEntryReachable: after each Remove, no removed
// *Entry (which caches its source and tree) is reachable anywhere in the
// index's backing array, the vacated tail slots included.
func TestRemoveLeavesNoRemovedEntryReachable(t *testing.T) {
	src, err := Open(regressionCorpus)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for e := range src.Select(Filter{}) {
		s, err := e.Source()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Put(e.Meta, s); err != nil {
			t.Fatal(err)
		}
	}
	removed := map[*Entry]bool{}
	// First, last, and middle positions, until the corpus is empty.
	for c.Len() > 0 {
		var i int
		switch len(removed) % 3 {
		case 0:
			i = 0
		case 1:
			i = c.Len() - 1
		default:
			i = c.Len() / 2
		}
		e := c.entries[i]
		if err := c.Remove(e); err != nil {
			t.Fatal(err)
		}
		removed[e] = true
		for j, slot := range c.entries[:cap(c.entries)] {
			if removed[slot] {
				t.Fatalf("after %d removals: removed entry %s still reachable at slot %d (len %d, cap %d)",
					len(removed), slot.Name, j, c.Len(), cap(c.entries))
			}
		}
	}
}

// TestFingerprintMatchesProgram: Entry.Fingerprint equals
// Fingerprint(Program()) whichever is called first. Called first, it
// leaves no tree pinned on the entry.
func TestFingerprintMatchesProgram(t *testing.T) {
	fpFirst, err := Open(regressionCorpus)
	if err != nil {
		t.Fatal(err)
	}
	progFirst, err := Open(regressionCorpus)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for e := range fpFirst.Select(Filter{}) {
		fp, err := e.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if e.prog != nil {
			t.Errorf("%s: Fingerprint pinned the parsed program on the entry", e.Name)
		}
		prog, err := e.Program()
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if want := Fingerprint(prog); fp != want {
			t.Errorf("%s: Fingerprint() before Program() = %s, Fingerprint(Program()) = %s", e.Name, fp, want)
		}
		n++
	}
	for e := range progFirst.Select(Filter{}) {
		prog, err := e.Program()
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		fp, err := e.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if want := Fingerprint(prog); fp != want {
			t.Errorf("%s: Fingerprint() after Program() = %s, Fingerprint(Program()) = %s", e.Name, fp, want)
		}
	}
	if n == 0 {
		t.Fatal("regression corpus is empty")
	}
}

// TestFingerprintConcurrentCallers: Fingerprint and Program called from
// many goroutines at once on fresh entries agree with each other and with
// a serial computation (run under -race to check the caches).
func TestFingerprintConcurrentCallers(t *testing.T) {
	ref, err := Open(regressionCorpus)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for e := range ref.Select(Filter{}) {
		if want[e.Name], err = e.Fingerprint(); err != nil {
			t.Fatal(err)
		}
	}
	c, err := Open(regressionCorpus)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for e := range c.Select(Filter{}) {
		for g := range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if g%2 == 0 {
					if prog, err := e.Program(); err != nil || Fingerprint(prog) != want[e.Name] {
						t.Errorf("%s: Program() fingerprint differs (%v)", e.Name, err)
					}
				}
				if fp, err := e.Fingerprint(); err != nil || fp != want[e.Name] {
					t.Errorf("%s: concurrent Fingerprint() = %q, %v; want %q", e.Name, fp, err, want[e.Name])
				}
			}()
		}
	}
	wg.Wait()
}
