package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"ppm/internal/mp"
	"ppm/internal/partition"
	"ppm/internal/wire"
)

// Phase-boundary checkpoint/restart for distributed runs.
//
// A checkpoint file is one rank's committed state at a program-chosen
// marker: a fixed header (identity + phase counter + NodeStats), then
// every shared array's authoritative local image as one block of the
// wire commit grammar (internal/wire's block := uvarint(arrayID)
// uvarint(nRuns) run*), then a CRC32 trailer over everything before it.
// Reusing the commit grammar means restore runs through the exact
// applyWire path a phase commit uses, so a restored image is the image a
// commit would have produced — and NodeStats plus phaseSeq ride along so
// a recovered run's counters stay bit-identical to a fault-free one. A
// block must hold exactly the image a checkpoint writes, one run of the
// whole partition (or node instance) by its rank.
//
// Restart is coordinated: the supervisor relaunches the whole fleet, and
// RestoreCheckpoint agrees fleet-wide (an allgather of per-rank newest
// tags) on the highest tag every rank holds. Single-rank rejoin is
// unsound without rolling survivors back — their begin-of-phase images
// would disagree with the rejoiner's — so recovery restarts everyone
// from one consistent cut.
//
// File layout (all fixed-width fields little-endian):
//
//	u32 magic "PPMC"  u16 version  u32 rank  u32 nodes
//	i64 tag  i64 phaseSeq
//	u32 len(statsJSON)  statsJSON
//	u32 nArrays
//	nArrays * commit-grammar block
//	u32 crc32(everything above)
const (
	ckptMagic   = 0x5050_4d43 // "PPMC"
	ckptVersion = 1
)

// MaybeCheckpoint is the program's checkpoint marker, called at node
// level (outside Do) at a point where every rank passes with the same
// tag — typically the top of the outer iteration loop, with the
// iteration number as the tag. It writes a checkpoint when Options.
// Checkpoint is configured, the run is distributed, and at least
// EveryPhases global phases committed since the last checkpoint;
// otherwise it is a no-op, so checkpoint-aware programs run unchanged
// under the simulator. The tag is what RestoreCheckpoint later returns,
// letting the program fast-forward its loop to the checkpointed
// iteration.
func (rt *Runtime) MaybeCheckpoint(tag int64) {
	rt.checkNodeLevel("MaybeCheckpoint")
	gs := rt.gs
	c := gs.opt.Checkpoint
	if c == nil || gs.dist == nil {
		return
	}
	if gs.phaseSeqs[rt.node]-gs.lastCkptPhase < int64(c.EveryPhases) {
		return
	}
	if err := writeCheckpoint(gs, rt.node, c.Dir, tag); err != nil {
		panic(AbortError{Err: fmt.Errorf("core: node %d: checkpoint at tag %d: %w", rt.node, tag, err)})
	}
	gs.lastCkptPhase = gs.phaseSeqs[rt.node]
}

// RestoreCheckpoint resumes from the newest checkpoint every rank of the
// fleet holds. It must be called at node level after all shared arrays
// have been allocated (allocation re-runs normally on restart — SPMD
// re-execution re-establishes identical array ids on every rank) and
// before the first phase. When Options.Checkpoint.Restore is unset, the
// run is not distributed, or no common checkpoint exists (first launch,
// or a rank crashed before its first checkpoint), it returns (0, false)
// and the program runs from the top — the degenerate but correct
// recovery. Otherwise every rank's arrays, NodeStats, and phase counter
// are reinstalled from the agreed tag, which is returned for the
// program's loop fast-forward.
//
// The agreement is a collective (an allgather of each rank's two newest
// valid tags); every rank computes the same choice from the same gathered
// vector, so the fleet restores one consistent cut or none at all.
// Corrupt or torn files (bad CRC) simply drop out of a rank's candidate
// list, falling back to the previous checkpoint fleet-wide.
func (rt *Runtime) RestoreCheckpoint() (tag int64, ok bool) {
	rt.checkNodeLevel("RestoreCheckpoint")
	gs := rt.gs
	c := gs.opt.Checkpoint
	if c == nil || !c.Restore || gs.dist == nil {
		return 0, false
	}
	mine := availableCheckpoints(c.Dir, rt.node, gs.nodes)
	pair := []int64{-1, -1}
	for i := 0; i < len(mine) && i < 2; i++ {
		pair[i] = mine[i]
	}
	all := mp.Allgather(rt.comm, pair)
	chosen := int64(-1)
	for _, cand := range all {
		if cand < 0 || cand <= chosen {
			continue
		}
		common := true
		for n := 0; n < gs.nodes; n++ {
			if all[2*n] != cand && all[2*n+1] != cand {
				common = false
				break
			}
		}
		if common {
			chosen = cand
		}
	}
	if chosen < 0 {
		return 0, false
	}
	if err := loadCheckpoint(gs, rt.node, c.Dir, chosen); err != nil {
		panic(AbortError{Err: fmt.Errorf("core: node %d: restore of tag %d: %w", rt.node, chosen, err)})
	}
	recordRescale(gs, rt.node, c)
	return chosen, true
}

// recordRescale notes in NodeStats.Rescale that this restore landed in
// an elastically rescaled fleet: the checkpoint was written by one host
// process per rank, and the rank now runs inside one of c.HostProcs <
// nodes processes. A rank is "moved" when block-hosting places it on a
// process other than the one matching its own index — its restored
// partitions and node arrays had to be re-homed to a surviving host.
func recordRescale(gs *globalState, node int, c *CheckpointConfig) {
	if c.HostProcs <= 0 || c.HostProcs >= gs.nodes {
		return
	}
	rs := &gs.stats[node].Rescale
	rs.FromProcs = int64(gs.nodes)
	rs.ToProcs = int64(c.HostProcs)
	rs.Restores++
	if partition.NewBlock(gs.nodes, c.HostProcs).Owner(node) == node {
		return
	}
	rs.RanksMoved++
	for _, a := range gs.arrays {
		rs.ElemsMoved += int64(a.localElems(node))
	}
}

func ckptPath(dir string, rank int, tag int64) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-r%d-t%d.ppmckpt", rank, tag))
}

func writeCheckpoint(gs *globalState, node int, dir string, tag int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	statsJSON, err := json.Marshal(gs.stats[node])
	if err != nil {
		return err
	}
	buf := make([]byte, 0, 64+len(statsJSON))
	buf = binary.LittleEndian.AppendUint32(buf, ckptMagic)
	buf = binary.LittleEndian.AppendUint16(buf, ckptVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(node))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(gs.nodes))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(tag))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(gs.phaseSeqs[node]))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(statsJSON)))
	buf = append(buf, statsJSON...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(gs.arrays)))
	for _, arr := range gs.arrays {
		buf = arr.encodeCheckpoint(node, buf)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))

	// Tmp-and-rename so a crash mid-write leaves no torn file under the
	// final name, and the CRC catches anything that slips through.
	tmp := filepath.Join(dir, fmt.Sprintf(".ckpt-r%d-t%d.tmp", node, tag))
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, ckptPath(dir, node, tag)); err != nil {
		return err
	}
	pruneCheckpoints(dir, node)
	return nil
}

// pruneCheckpoints keeps this rank's two newest checkpoint files: the
// newest is the restart target, the previous survives as the fallback if
// a rank dies before completing the newest (the restore agreement then
// falls back to the older common tag).
func pruneCheckpoints(dir string, rank int) {
	tags := listCheckpointTags(dir, rank)
	for _, t := range tags[min(2, len(tags)):] {
		os.Remove(ckptPath(dir, rank, t))
	}
}

// listCheckpointTags returns this rank's checkpoint tags, newest first,
// by filename only (no validation).
func listCheckpointTags(dir string, rank int) []int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var tags []int64
	for _, ent := range ents {
		var r int
		var t int64
		if n, _ := fmt.Sscanf(ent.Name(), "ckpt-r%d-t%d.ppmckpt", &r, &t); n == 2 && r == rank {
			tags = append(tags, t)
		}
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] > tags[j] })
	return tags
}

// availableCheckpoints returns the tags of this rank's fully valid
// (header + CRC) checkpoint files, newest first.
func availableCheckpoints(dir string, rank, nodes int) []int64 {
	var out []int64
	for _, t := range listCheckpointTags(dir, rank) {
		if _, err := readCheckpoint(dir, rank, nodes, t); err == nil {
			out = append(out, t)
		}
	}
	return out
}

// ckptFile is one parsed and CRC-validated checkpoint.
type ckptFile struct {
	tag      int64
	phaseSeq int64
	stats    NodeStats
	nArrays  int
	blocks   []byte // the commit-grammar block region
}

func readCheckpoint(dir string, rank, nodes int, tag int64) (*ckptFile, error) {
	b, err := os.ReadFile(ckptPath(dir, rank, tag))
	if err != nil {
		return nil, err
	}
	return parseCheckpoint(b, rank, nodes, tag)
}

// parseCheckpoint validates b, a whole checkpoint file, as rank's
// checkpoint of tag in a fleet of nodes, and splits it.
func parseCheckpoint(b []byte, rank, nodes int, tag int64) (*ckptFile, error) {
	if len(b) < 38 {
		return nil, fmt.Errorf("checkpoint file is %d bytes, too short", len(b))
	}
	body, trailer := b[:len(b)-4], b[len(b)-4:]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("checkpoint CRC mismatch (%#x != %#x): torn or corrupt file", got, want)
	}
	if m := binary.LittleEndian.Uint32(body[0:]); m != ckptMagic {
		return nil, fmt.Errorf("bad checkpoint magic %#x", m)
	}
	if v := binary.LittleEndian.Uint16(body[4:]); v != ckptVersion {
		return nil, fmt.Errorf("checkpoint version %d, want %d", v, ckptVersion)
	}
	if r := int(int32(binary.LittleEndian.Uint32(body[6:]))); r != rank {
		return nil, fmt.Errorf("checkpoint is for rank %d, not %d", r, rank)
	}
	if n := int(int32(binary.LittleEndian.Uint32(body[10:]))); n != nodes {
		return nil, fmt.Errorf("checkpoint is from a %d-node fleet, this one has %d", n, nodes)
	}
	f := &ckptFile{
		tag:      int64(binary.LittleEndian.Uint64(body[14:])),
		phaseSeq: int64(binary.LittleEndian.Uint64(body[22:])),
	}
	if f.tag != tag {
		return nil, fmt.Errorf("checkpoint file named tag %d holds tag %d", tag, f.tag)
	}
	sLen := int(binary.LittleEndian.Uint32(body[30:]))
	if 34+sLen+4 > len(body) {
		return nil, fmt.Errorf("checkpoint stats record overruns the file")
	}
	if err := json.Unmarshal(body[34:34+sLen], &f.stats); err != nil {
		return nil, fmt.Errorf("checkpoint stats record: %w", err)
	}
	f.nArrays = int(int32(binary.LittleEndian.Uint32(body[34+sLen:])))
	if f.nArrays < 0 {
		return nil, fmt.Errorf("checkpoint holds %d arrays", f.nArrays)
	}
	f.blocks = body[38+sLen:]
	return f, nil
}

func loadCheckpoint(gs *globalState, node int, dir string, tag int64) error {
	f, err := readCheckpoint(dir, node, gs.nodes, tag)
	if err != nil {
		return err
	}
	return f.restore(gs, node)
}

// restore reinstalls f as node's committed state: its arrays, NodeStats
// and phase counter.
func (f *ckptFile) restore(gs *globalState, node int) error {
	if f.nArrays > len(gs.arrays) {
		return fmt.Errorf("checkpoint holds %d arrays but the program has allocated %d — call RestoreCheckpoint after all allocations", f.nArrays, len(gs.arrays))
	}
	rd := wire.NewCommitReader(f.blocks)
	for i := 0; i < f.nArrays; i++ {
		id, nRuns, err := rd.Block()
		if err != nil {
			return err
		}
		if id != i {
			return fmt.Errorf("checkpoint block %d is for array id %d — allocation order diverged from the checkpointed run", i, id)
		}
		if err := gs.arrays[id].restoreCheckpoint(node, rd, nRuns); err != nil {
			return err
		}
	}
	if rd.More() {
		return fmt.Errorf("trailing bytes after the last checkpoint block")
	}
	gs.stats[node] = f.stats
	gs.phaseSeqs[node] = f.phaseSeq
	gs.lastCkptPhase = f.phaseSeq
	return nil
}
