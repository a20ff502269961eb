package core

import (
	"testing"

	"ppm/internal/rng"
)

// The interval-cover set (coverAdd / coverSub / coverMissing) is the
// heart of the distributed read cache and of the fleet-wide fetch
// single-flight, so it is checked two ways: a seeded random operation
// sequence against a naive bitmap oracle, and the adjacency edge cases
// spelled out by hand.

const coverUniverse = 64

// coverBits materializes a cover as a bitmap for oracle comparison.
func coverBits(t *testing.T, cov []intRun) [coverUniverse]bool {
	t.Helper()
	var b [coverUniverse]bool
	prevHi := -1
	for i, r := range cov {
		if r.lo >= r.hi {
			t.Fatalf("run %d is empty: [%d,%d)", i, r.lo, r.hi)
		}
		// Sorted, disjoint, and never merely touching: coverAdd merges
		// adjacent runs, so a canonical cover has gaps between runs.
		if r.lo <= prevHi {
			t.Fatalf("run %d [%d,%d) is not strictly after [..,%d)", i, r.lo, r.hi, prevHi)
		}
		prevHi = r.hi
		for j := r.lo; j < r.hi && j < coverUniverse; j++ {
			b[j] = true
		}
	}
	return b
}

func TestCoverPropertyVsBitmapOracle(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 50; trial++ {
		// The operations work in place. Even trials start from a nil
		// cover, so inserts and splits must grow it; odd trials start
		// with room for any canonical cover over the universe, so every
		// operation must stay inside the one backing array.
		var cov []intRun
		if trial%2 == 1 {
			cov = make([]intRun, 0, coverUniverse/2+1)
		}
		roomy := cov
		var oracle [coverUniverse]bool
		for step := 0; step < 200; step++ {
			lo := r.Intn(coverUniverse)
			hi := lo + r.Intn(coverUniverse-lo+1)
			switch r.Intn(3) {
			case 0:
				cov = coverAdd(cov, lo, hi)
				for j := lo; j < hi; j++ {
					oracle[j] = true
				}
			case 1:
				cov = coverSub(cov, lo, hi)
				for j := lo; j < hi; j++ {
					oracle[j] = false
				}
			case 2:
				missing := coverMissing(cov, lo, hi)
				var got [coverUniverse]bool
				mPrevHi := -1
				for i, m := range missing {
					if m.lo >= m.hi || m.lo < lo || m.hi > hi {
						t.Fatalf("trial %d step %d: missing run %d [%d,%d) outside query [%d,%d)",
							trial, step, i, m.lo, m.hi, lo, hi)
					}
					if m.lo <= mPrevHi {
						t.Fatalf("trial %d step %d: missing runs unsorted or touching", trial, step)
					}
					mPrevHi = m.hi
					for j := m.lo; j < m.hi; j++ {
						got[j] = true
					}
				}
				for j := lo; j < hi; j++ {
					if got[j] == oracle[j] {
						t.Fatalf("trial %d step %d: index %d missing=%v but covered=%v (cov %v, query [%d,%d))",
							trial, step, j, got[j], oracle[j], cov, lo, hi)
					}
				}
				continue
			}
			if got := coverBits(t, cov); got != oracle {
				t.Fatalf("trial %d step %d: cover %v diverged from oracle", trial, step, cov)
			}
			if roomy != nil && len(cov) > 0 && &cov[0] != &roomy[:1][0] {
				t.Fatalf("trial %d step %d: cover with spare capacity was reallocated", trial, step)
			}
		}
	}
}

// A cover that has reached its working size is maintained without
// allocating: the fetch single-flight adds and subtracts a claim per
// miss, and a warm phase open adds every prefetched range.
func TestCoverOpsDoNotAllocate(t *testing.T) {
	cov := make([]intRun, 0, 16)
	allocs := testing.AllocsPerRun(100, func() {
		cov = cov[:0]
		for i := 0; i < 8; i++ {
			cov = coverAdd(cov, 10*i, 10*i+4) // sorted appends, as a prefetch makes them
		}
		cov = coverAdd(cov, 35, 36)  // mid-slice insert
		cov = coverSub(cov, 11, 13)  // split
		cov = coverAdd(cov, 4, 70)   // merge across many runs
		cov = coverSub(cov, 0, 1000) // remove everything
	})
	if allocs != 0 {
		t.Fatalf("cover operations within capacity allocated %v times per run", allocs)
	}
	if len(cov) != 0 {
		t.Fatalf("cover after removing everything: %v", cov)
	}
}

func TestCoverAdjacentRunMerges(t *testing.T) {
	// Filling the gap between two runs collapses all three into one.
	cov := coverAdd(coverAdd(nil, 0, 2), 4, 6)
	cov = coverAdd(cov, 2, 4)
	if len(cov) != 1 || cov[0] != (intRun{lo: 0, hi: 6}) {
		t.Fatalf("bridge add left %v, want one [0,6) run", cov)
	}
	// Touching (not overlapping) on either side merges too.
	if got := coverAdd([]intRun{{lo: 0, hi: 2}}, 2, 4); len(got) != 1 || got[0] != (intRun{lo: 0, hi: 4}) {
		t.Fatalf("right-touching add left %v", got)
	}
	if got := coverAdd([]intRun{{lo: 2, hi: 4}}, 0, 2); len(got) != 1 || got[0] != (intRun{lo: 0, hi: 4}) {
		t.Fatalf("left-touching add left %v", got)
	}
	// An empty add is a no-op.
	if got := coverAdd([]intRun{{lo: 1, hi: 3}}, 2, 2); len(got) != 1 || got[0] != (intRun{lo: 1, hi: 3}) {
		t.Fatalf("empty add changed the cover: %v", got)
	}
	// Subtracting the middle splits; subtracting a touching range is a
	// no-op (half-open intervals share no elements).
	if got := coverSub([]intRun{{lo: 0, hi: 6}}, 2, 4); len(got) != 2 ||
		got[0] != (intRun{lo: 0, hi: 2}) || got[1] != (intRun{lo: 4, hi: 6}) {
		t.Fatalf("mid-sub left %v, want [0,2) [4,6)", got)
	}
	if got := coverSub([]intRun{{lo: 0, hi: 2}}, 2, 4); len(got) != 1 || got[0] != (intRun{lo: 0, hi: 2}) {
		t.Fatalf("touching sub changed the cover: %v", got)
	}
	// Missing over an empty cover is the whole query; over a full cover
	// it is nothing.
	if got := coverMissing(nil, 3, 9); len(got) != 1 || got[0] != (intRun{lo: 3, hi: 9}) {
		t.Fatalf("missing over empty cover = %v", got)
	}
	if got := coverMissing([]intRun{{lo: 0, hi: 10}}, 3, 9); len(got) != 0 {
		t.Fatalf("missing over full cover = %v", got)
	}
}

// coverMissingLinear is coverMissing as it was before it bisected to its
// first relevant run: the reference for a large cover.
func coverMissingLinear(cov []intRun, lo, hi int) []intRun {
	var out []intRun
	for _, r := range cov {
		if r.hi <= lo {
			continue
		}
		if r.lo >= hi {
			break
		}
		if r.lo > lo {
			out = append(out, intRun{lo: lo, hi: r.lo})
		}
		if lo = r.hi; lo >= hi {
			return out
		}
	}
	if lo < hi {
		out = append(out, intRun{lo: lo, hi: hi})
	}
	return out
}

// search and nbody grow a cover of thousands of one-element runs per
// phase and query it on every remote read; the query must find its place
// in such a cover without changing what it answers.
func TestCoverMissingOnLargeCover(t *testing.T) {
	const runs = 10000
	var cov []intRun
	for i := 0; i < runs; i++ {
		cov = coverAdd(cov, 3*i, 3*i+1) // one element covered, two not
	}
	if len(cov) != runs {
		t.Fatalf("cover has %d runs, want %d", len(cov), runs)
	}
	same := func(lo, hi int) {
		t.Helper()
		got, want := coverMissing(cov, lo, hi), coverMissingLinear(cov, lo, hi)
		if len(got) != len(want) {
			t.Fatalf("coverMissing(%d, %d) = %v, want %v", lo, hi, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("coverMissing(%d, %d) = %v, want %v", lo, hi, got, want)
			}
		}
	}
	for i := 0; i < runs-1; i++ {
		if m := coverMissing(cov, 3*i, 3*i+1); len(m) != 0 {
			t.Fatalf("covered element %d reported missing: %v", 3*i, m)
		}
		// A gap and the run after it.
		if m := coverMissing(cov, 3*i+1, 3*i+4); len(m) != 1 || m[0] != (intRun{lo: 3*i + 1, hi: 3*i + 3}) {
			t.Fatalf("coverMissing(%d, %d) = %v, want the two-element gap", 3*i+1, 3*i+4, m)
		}
	}
	r := rng.New(7)
	for q := 0; q < 2000; q++ {
		lo := r.Intn(3*runs + 10)
		same(lo-5, lo+r.Intn(40))
	}
	same(-10, 3*runs+10)
}
