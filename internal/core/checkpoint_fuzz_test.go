package core_test

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ppm/internal/apps/scatter"
	"ppm/internal/core"
	"ppm/internal/dist"
	"ppm/internal/wire"
)

// The fuzzed rank holds scatter's accumulator, as the seed's run did, and
// a node array the seed does not carry.
const (
	fuzzAccElems   = 64
	fuzzCountElems = 5
)

// scatterCheckpoint runs scatter on a 2-rank loopback mesh with a
// checkpoint at every marker and returns rank 0's newest checkpoint file.
func scatterCheckpoint(f *testing.F) []byte {
	dir, rdv := f.TempDir(), f.TempDir()
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng, err := dist.Connect(dist.Config{Rank: r, Nodes: 2, RendezvousDir: rdv})
			if err != nil {
				errs[r] = err
				return
			}
			defer eng.Close()
			run := func(o core.Options, prog func(rt *core.Runtime)) (*core.Report, error) {
				return core.RunDist(o, eng, prog)
			}
			opt := core.Options{Nodes: 2, CoresPerNode: 2, Checkpoint: &core.CheckpointConfig{Dir: dir}}
			_, _, errs[r] = scatter.RunPPMOn(run, opt, scatter.Params{N: fuzzAccElems, Iters: 3})
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			f.Fatalf("rank %d: %v", r, err)
		}
	}
	files, _ := filepath.Glob(filepath.Join(dir, "ckpt-r0-t*.ppmckpt"))
	slices.Sort(files)
	if len(files) == 0 {
		f.Fatal("the scatter run wrote no checkpoint for rank 0")
	}
	b, err := os.ReadFile(files[len(files)-1])
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// ckptBlock is one decoded block of a checkpoint: its array and its runs.
type ckptBlock struct {
	Array int
	Runs  []wire.RunHeader
	Raw   [][]byte
}

// decodeBlocks splits a block region whose arrays all have 8-byte
// elements.
func decodeBlocks(t *testing.T, b []byte) []ckptBlock {
	t.Helper()
	var out []ckptBlock
	rd := wire.NewCommitReader(b)
	for rd.More() {
		id, nRuns, err := rd.Block()
		blk := ckptBlock{Array: id}
		for i := 0; i < nRuns && err == nil; i++ {
			var h wire.RunHeader
			var raw []byte
			if h, raw, err = rd.Run(8); err == nil {
				blk.Runs = append(blk.Runs, h)
				blk.Raw = append(blk.Raw, raw)
			}
		}
		if err != nil {
			t.Fatalf("block region %x: %v", b, err)
		}
		out = append(out, blk)
	}
	return out
}

// FuzzLoadCheckpoint holds checkpoint restore, the decoder of files read
// back from disk, to its contract: whatever a file with a valid CRC
// holds, loading it as rank 0's checkpoint of a 2-rank fleet returns an
// error or restores, and never panics; and what it restores is exactly
// what the file held, so the restored arrays encode the same blocks. The
// seeds are rank 0's checkpoint of a 2-rank scatter run, and the same
// with a block for the node array appended.
func FuzzLoadCheckpoint(f *testing.F) {
	file := scatterCheckpoint(f)
	body := file[:len(file)-4]
	// The same with the node array's block: nArrays (the u32 before the
	// blocks) goes from 1 to 2.
	two := slices.Clone(body)
	sLen := int(binary.LittleEndian.Uint32(two[30:]))
	binary.LittleEndian.PutUint32(two[34+sLen:], 2)
	two = wire.AppendBlockHeader(two, 1, 1)
	two = wire.AppendRunHeader(two, wire.RunHeader{Lo: 0, N: fuzzCountElems})
	two = append(two, make([]byte, 8*fuzzCountElems)...)
	for _, seed := range [][]byte{body, two} {
		f.Add(seed)
		tag := int64(binary.LittleEndian.Uint64(seed[14:]))
		file := binary.LittleEndian.AppendUint32(slices.Clone(seed), crc32.ChecksumIEEE(seed))
		if _, _, err := core.RestoreCheckpointBytes(file, tag, fuzzAccElems, fuzzCountElems); err != nil {
			f.Fatalf("a seed does not restore: %v", err)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		file := binary.LittleEndian.AppendUint32(slices.Clone(body), crc32.ChecksumIEEE(body))
		var tag int64
		if len(body) >= 22 {
			tag = int64(binary.LittleEndian.Uint64(body[14:]))
		}
		in, out, err := core.RestoreCheckpointBytes(file, tag, fuzzAccElems, fuzzCountElems)
		if err != nil {
			return
		}
		if got, want := decodeBlocks(t, out), decodeBlocks(t, in); !reflect.DeepEqual(got, want) {
			t.Fatalf("restored arrays encode\n%+v\nwhere the file held\n%+v", got, want)
		}
	})
}
