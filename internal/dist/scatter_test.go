package dist

import (
	"fmt"
	"testing"

	"ppm/internal/apps/scatter"
	"ppm/internal/core"
	"ppm/internal/wire"
)

// The figure apps write owner-locally, so their remote commit streams
// are empty and all their wire traffic is fetches. The scatter app
// (internal/apps/scatter) is the opposite shape — a CG-transpose-style
// scatter-add whose VPs write short, near-monotone single-element Add
// runs into a neighbor node's partition — so it drives CommitData
// frames (and hence the commit codec) end to end. Every VP also reads
// the same remote block each phase, which is the fleet-wide
// read-coalescing pattern.

// runScatterSim runs the default scatter workload under the in-process
// simulator.
func runScatterSim(t *testing.T, nodes int) ([][]float64, *core.Report) {
	t.Helper()
	out, rep, err := scatter.RunPPM(distOpt(nodes), scatter.Params{})
	if err != nil {
		t.Fatal(err)
	}
	return out, rep
}

// runScatterMesh runs the same workload over a loopback mesh with a
// per-rank Config hook and returns each node's partition and full
// NodeStats (Wire counters included).
func runScatterMesh(t *testing.T, nodes int, mod func(rank int, cfg *Config)) ([][]float64, []core.NodeStats) {
	t.Helper()
	out := make([][]float64, nodes)
	stats := make([]core.NodeStats, nodes)
	runMeshWith(t, nodes, mod, func(rank int, eng *Engine) error {
		frag, rep, err := scatter.RunPPMOn(func(o core.Options, prog func(rt *core.Runtime)) (*core.Report, error) {
			return core.RunDist(o, eng, prog)
		}, distOpt(nodes), scatter.Params{})
		if err != nil {
			return err
		}
		out[rank] = frag[rank]
		stats[rank] = rep.PerNode[rank]
		return nil
	})
	return out, stats
}

// TestDistScatterCodecMatchesSimulator checks bit-identity of the
// scatter workload against the simulator under both commit codecs:
// raw commit streams and delta-compressed commit streams.
func TestDistScatterCodecMatchesSimulator(t *testing.T) {
	for _, nodes := range []int{2, 3} {
		want, wrep := runScatterSim(t, nodes)
		for _, tc := range []struct {
			name string
			mod  func(rank int, cfg *Config)
		}{
			{"raw", nil},
			{"delta", func(_ int, cfg *Config) { cfg.Codec = wire.CodecDelta }},
		} {
			t.Run(fmt.Sprintf("nodes=%d/%s", nodes, tc.name), func(t *testing.T) {
				got, stats := runScatterMesh(t, nodes, tc.mod)
				for n := range want {
					sameF64(t, fmt.Sprintf("node %d partition", n), got[n], want[n])
				}
				samePerNode(t, stats, wrep.PerNode)
			})
		}
	}
}

// TestDistScatterWireCounters pins down the observable effects: the
// delta codec must actually shrink the commit stream, concurrent
// identical remote reads must actually coalesce onto one wire fetch,
// and the writer only ever coalesces (a flush carries at least one
// frame, and nothing forces one early).
func TestDistScatterWireCounters(t *testing.T) {
	_, raw := runScatterMesh(t, 2, nil)
	_, delta := runScatterMesh(t, 2, func(_ int, cfg *Config) { cfg.Codec = wire.CodecDelta })

	var coalesced int64
	for rank, s := range raw {
		w := s.Wire
		if w.FramesOut == 0 || w.Flushes == 0 || w.BytesOnWire == 0 || w.ReadReqsSent == 0 {
			t.Errorf("rank %d: empty wire counters under load: %+v", rank, w)
		}
		if w.Flushes > w.FramesOut || w.ForcedFlushes != 0 {
			t.Errorf("rank %d: %d flushes (%d forced) for %d frames", rank, w.Flushes, w.ForcedFlushes, w.FramesOut)
		}
		if w.CommitBytesRaw == 0 {
			t.Errorf("rank %d: scatter workload produced no remote commit bytes", rank)
		}
		if w.CommitBytesEnc != w.CommitBytesRaw {
			t.Errorf("rank %d: raw codec reports transcoding: enc %d, raw %d",
				rank, w.CommitBytesEnc, w.CommitBytesRaw)
		}
		coalesced += w.ReadsCoalesced
	}
	// 6 VPs per rank fetch the same remote block every phase; all but
	// the first wait out the in-flight fetch. Requiring a single
	// coalesced read across 2 ranks x 4 phases keeps this robust.
	if coalesced == 0 {
		t.Error("no reads coalesced across 8 identical-range fan-in phases")
	}

	for rank, s := range delta {
		w := s.Wire
		if w.CommitBytesRaw == 0 {
			t.Fatalf("rank %d: no commit traffic under delta codec", rank)
		}
		if w.CommitBytesEnc >= w.CommitBytesRaw {
			t.Errorf("rank %d: delta codec did not shrink the commit stream: enc %d >= raw %d",
				rank, w.CommitBytesEnc, w.CommitBytesRaw)
		} else {
			t.Logf("rank %d commit stream: raw %d -> delta %d bytes (%.2fx)",
				rank, w.CommitBytesRaw, w.CommitBytesEnc,
				float64(w.CommitBytesRaw)/float64(w.CommitBytesEnc))
		}
	}
}

// TestDistScatterMixedCodecFleet runs a fleet where only rank 0 prefers
// the delta codec: each link negotiates independently, and the old-peer
// fallback to raw must not disturb the results.
func TestDistScatterMixedCodecFleet(t *testing.T) {
	want, wrep := runScatterSim(t, 3)
	got, stats := runScatterMesh(t, 3, func(rank int, cfg *Config) {
		if rank == 0 {
			cfg.Codec = wire.CodecDelta
		}
	})
	for n := range want {
		sameF64(t, fmt.Sprintf("node %d partition", n), got[n], want[n])
	}
	samePerNode(t, stats, wrep.PerNode)
}
