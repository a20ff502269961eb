package core

import (
	"strings"
	"testing"

	"ppm/internal/machine"
	"ppm/internal/mp"
	"ppm/internal/wire"
)

// A vectored read reply carries no lengths: the requester slices it by
// the ranges it asked for. The slicing must land every range in its own
// array, and must reject a reply that is short or long by even a byte —
// a truncated or duplicated frame may never become a wrong value.
func TestInstallReplySlicesByRange(t *testing.T) {
	// Rank 0 of 2 owns [0:16) of each array; the reply lands in its line
	// image of rank 1's [16:32).
	gs := &globalState{dist: newLoopMesh(2).engs[0], nodes: 2}
	a := testGlobal[float64](gs, 32)
	b := testGlobal[int32](gs, 32)
	ranges := []wire.ReadRange{
		{Array: a.id, Lo: 18, Hi: 21},
		{Array: b.id, Lo: 16, Hi: 20},
		{Array: a.id, Lo: 25, Hi: 25}, // empty: contributes no bytes
		{Array: a.id, Lo: 31, Hi: 32},
	}
	var data []byte
	data = mp.AppendElems(data, []float64{2.5, 3.5, 4.5})
	data = mp.AppendElems(data, []int32{10, 11, 12, 13})
	data = mp.AppendElems(data, []float64{-1})
	if err := gs.installReply(1, ranges, data); err != nil {
		t.Errorf("exact reply rejected: %v", err)
	}
	if a.held(18) != 2.5 || a.held(20) != 4.5 || a.held(31) != -1 || b.held(16) != 10 || b.held(19) != 13 {
		t.Errorf("reply landed wrong: a=%v b=%v", a.lines, b.lines)
	}
	if a.held(21) != 0 || a.held(25) != 0 || b.held(20) != 0 || a.held(15) != 0 {
		t.Errorf("reply spilled outside its ranges: a=%v %v b=%v", a.base, a.lines, b.lines)
	}

	err := gs.installReply(1, ranges, data[:len(data)-1])
	if err == nil || !strings.Contains(err.Error(), "short of a0[31:32)") || !strings.Contains(err.Error(), "rank 1") {
		t.Errorf("short reply: err = %v, want it to name the range it ran out at and the owner", err)
	}
	err = gs.installReply(1, ranges, append(data, 0))
	if err == nil || !strings.Contains(err.Error(), "1 more than") {
		t.Errorf("long reply: err = %v, want the surplus reported", err)
	}
	if err := gs.installReply(1, []wire.ReadRange{{Array: a.id, Lo: 26, Hi: 33}}, make([]byte, 56)); err == nil {
		t.Error("range past the end of the array was installed")
	}
}

// The read server refuses a range outside the partition it owns, and
// names the range: the requester splits by owner, so such a request is a
// bug or corruption, and the owner's abort says which.
func TestEncodeRangeOutsidePartition(t *testing.T) {
	mustRun(t, Options{Nodes: 2, Machine: machine.Generic()}, func(rt *Runtime) {
		g := AllocGlobal[float64](rt, "rr.g", 10) // node 0 owns [0:5), node 1 [5:10)
		if rt.NodeID() != 0 {
			return
		}
		if data, err := g.encodeRange(0, 1, 4); err != nil || len(data) != 24 {
			t.Errorf("owned range: %d bytes, err %v", len(data), err)
		}
		for _, r := range [][2]int{{3, 6}, {5, 7}, {-1, 2}, {4, 3}} {
			_, err := g.encodeRange(0, r[0], r[1])
			if err == nil || !strings.Contains(err.Error(), "rr.g[") || !strings.Contains(err.Error(), "partition [0:5)") {
				t.Errorf("range [%d:%d): err = %v, want a refusal naming the range and the partition", r[0], r[1], err)
			}
		}
	})
}

// Plan recording turns runs of adjacent scalar reads into one range per
// owner, and never joins ranges across arrays or owners.
func TestPlanNoteFetchCoalesces(t *testing.T) {
	var p phasePlan
	p.beginRecord(phaseGlobal, 2, 3, true)
	for ix := 40; ix < 50; ix++ { // a halo plane read element by element
		p.noteFetch(1, 0, ix, ix+1)
	}
	p.noteFetch(1, 0, 60, 61) // a gap starts a new range
	p.noteFetch(1, 1, 61, 62) // so does another array, even at an adjacent index
	p.noteFetch(2, 1, 62, 70) // and another owner
	p.noteFetch(2, 1, 70, 71) // a scalar continuing a block run extends it
	want := [][]wire.ReadRange{
		nil,
		{{Array: 0, Lo: 40, Hi: 50}, {Array: 0, Lo: 60, Hi: 61}, {Array: 1, Lo: 61, Hi: 62}},
		{{Array: 1, Lo: 62, Hi: 71}},
	}
	for owner := range want {
		got := p.fcov[owner]
		if len(got) != len(want[owner]) {
			t.Fatalf("owner %d: ranges %v, want %v", owner, got, want[owner])
		}
		for i := range got {
			if got[i] != want[owner][i] {
				t.Fatalf("owner %d: ranges %v, want %v", owner, got, want[owner])
			}
		}
	}
}
