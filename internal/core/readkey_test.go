package core

import (
	"cmp"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// A read key packs (array, idx) into one word, and keys compare as their
// pairs do, at the edges of both fields: compaction, the merge and plan
// validation rely on sorting keys as integers.
func TestReadKeyOrderAtFieldEdges(t *testing.T) {
	arrays := []int{0, 1, 2, maxKeyArrays / 2, maxKeyArrays - 2, maxKeyArrays - 1}
	idxs := []int{0, 1, 2, 1<<32 - 1, 1 << 32, maxKeyLen / 2, maxKeyLen - 2, maxKeyLen - 1}
	type pair struct{ array, idx int }
	var pairs []pair
	var keys []readKey
	for _, a := range arrays {
		for _, i := range idxs {
			k := makeReadKey(a, i)
			if k.array() != a || k.idx() != i {
				t.Fatalf("makeReadKey(%d, %d) unpacks to (%d, %d)", a, i, k.array(), k.idx())
			}
			pairs, keys = append(pairs, pair{a, i}), append(keys, k)
		}
	}
	for x := range keys {
		for y := range keys {
			want := cmp.Or(cmp.Compare(pairs[x].array, pairs[y].array), cmp.Compare(pairs[x].idx, pairs[y].idx))
			if got := cmp.Compare(keys[x], keys[y]); got != want {
				t.Errorf("keys of %v and %v compare %d, want %d", pairs[x], pairs[y], got, want)
			}
		}
	}
}

// Registration refuses a Global longer than a key's index field and an
// array id past its array field, before it draws any storage.
func TestRegistrationRefusesWhatAKeyCannotHold(t *testing.T) {
	for _, tc := range []struct {
		name string
		prog func(rt *Runtime)
		want string
	}{
		{"length", func(rt *Runtime) {
			AllocGlobal[float64](rt, "huge", maxKeyLen+1)
		}, fmt.Sprintf("more than 2^%d elements", keyIdxBits)},
		{"array id", func(rt *Runtime) {
			AllocNode[int64](rt, "first", 1)
			rt.gs.allocSeq[rt.node] = maxKeyArrays
			AllocGlobal[float64](rt, "one too many", 1)
		}, fmt.Sprintf("at most %d shared arrays", maxKeyArrays)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Run(opts(1), tc.prog)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error saying %q", tc.name, err, tc.want)
		}
		if a := after.TotalAlloc - before.TotalAlloc; a > 1<<20 {
			t.Errorf("%s: the refused run allocated %d bytes", tc.name, a)
		}
	}
}
