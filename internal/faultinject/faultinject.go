// Package faultinject is the deterministic fault-injection harness of
// the distributed runtime. A Plan, parsed from the PPM_FAULT environment
// variable (or built programmatically), tells the wire/dist seams which
// faults to inject: probabilistic frame faults (drop, delay, duplicate,
// truncate) on the per-peer writer, silent mesh partitions, hard
// connection severs, and killing a rank at the Nth global-phase boundary.
//
// Every probabilistic decision draws from internal/rng streams derived
// from the spec's seed and the (rank, peer) pair, so a chaos run replays
// exactly: the same spec against the same program produces the same
// faults on the same frames.
//
// Frame faults act in Plan.Writer, which the engine puts between a peer
// link's bundling writer and its socket, after all payload encoding: a
// truncated CommitData frame under the delta wire codec mutilates the
// encoded stream, exactly like damage on a real link, and must surface
// as a decode/length error on the receiver — never a wrong answer.
//
// Spec grammar (items separated by ';', whitespace ignored):
//
//	seed=N                    rng seed for probabilistic faults (default 1)
//	drop=P[@phase:K]          drop each outgoing frame with probability P
//	delay=P:DUR[@phase:K]     stall the writer for DUR with probability P
//	dup=P[@phase:K]           send each frame twice with probability P
//	trunc=P[@phase:K]         truncate the frame payload with probability P
//	sever=R[@phase:K]         close every connection incident to rank R
//	partition=A|B[@phase:K]   silently blackhole all links between rank
//	                          sets A and B (comma-separated rank lists)
//	kill=R[@phase:K]          rank R exits (code KillExitCode) on entering
//	                          the commit of global phase K
//	killhost=J[@phase:K]      host process J exits (code KillExitCode) on
//	                          entering the commit of global phase K
//
// @phase:K arms the item from global phase K on (probabilistic items) or
// exactly at phase K (sever, kill, killhost); the default is 0, i.e.
// immediately. One-shot items (sever, partition, kill) arm only on launch
// attempt 0 (PPM_FAULT_ATTEMPT, set by the supervisor), so a relaunched
// fleet can actually recover from the fault that killed the first one.
// killhost is the exception: it arms on every attempt, modeling a host
// that is permanently dead — the fault only stops firing once the
// supervisor rescales the fleet below J+1 host processes, which is what
// the elastic-recovery tests exercise.
package faultinject

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ppm/internal/rng"
	"ppm/internal/wire"
)

// KillExitCode is the exit status of a rank killed by a kill= item,
// distinguishable from ordinary run failures (1) and flag errors (2).
const KillExitCode = 37

// frameFault is the verdict for one outgoing frame.
type frameFault struct {
	drop, dup, trunc bool
	delay            time.Duration
}

type frameRuleKind int

const (
	ruleDrop frameRuleKind = iota
	ruleDelay
	ruleDup
	ruleTrunc
)

type frameRule struct {
	kind      frameRuleKind
	p         float64
	d         time.Duration
	fromPhase int64
}

// Plan is one process's parsed fault schedule. The zero Plan injects
// nothing; a nil *Plan is the usual "no faults" configuration.
type Plan struct {
	rank int
	seed uint64

	rules     []frameRule
	severs    map[int64][]int // phase -> peers to sever (-1 = all)
	partPhase int64           // -1: no partition
	blackhole map[int]bool    // peers silently cut from partPhase on
	killPhase int64           // -1: no kill

	phase atomic.Int64 // current global phase, set by the engine
}

// FromEnvHost builds the Plan for a rank hosted inside host process proc
// from PPM_FAULT and PPM_FAULT_ATTEMPT (a rescaled fleet runs several
// ranks per process; killhost= items key on the process index, not the
// rank). It returns (nil, nil) when PPM_FAULT is unset.
func FromEnvHost(rank, proc int) (*Plan, error) {
	spec := os.Getenv("PPM_FAULT")
	if spec == "" {
		return nil, nil
	}
	attempt := 0
	if a := os.Getenv("PPM_FAULT_ATTEMPT"); a != "" {
		n, err := strconv.Atoi(a)
		if err != nil {
			return nil, fmt.Errorf("faultinject: bad PPM_FAULT_ATTEMPT %q: %v", a, err)
		}
		attempt = n
	}
	return ParseHost(spec, rank, proc, attempt)
}

// ParseHost builds the Plan one rank, hosted inside host process proc,
// derives from spec on the given launch attempt.
func ParseHost(spec string, rank, proc, attempt int) (*Plan, error) {
	pl := &Plan{
		rank:      rank,
		seed:      1,
		severs:    make(map[int64][]int),
		partPhase: -1,
		killPhase: -1,
	}
	for _, item := range strings.Split(spec, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		key, val, ok := strings.Cut(item, "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: item %q is not key=value", item)
		}
		val, phase, err := cutPhase(val)
		if err != nil {
			return nil, fmt.Errorf("faultinject: item %q: %v", item, err)
		}
		switch key {
		case "seed":
			s, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad seed %q", val)
			}
			pl.seed = s
		case "drop", "dup", "trunc":
			p, err := parseProb(val)
			if err != nil {
				return nil, fmt.Errorf("faultinject: item %q: %v", item, err)
			}
			kind := map[string]frameRuleKind{"drop": ruleDrop, "dup": ruleDup, "trunc": ruleTrunc}[key]
			pl.rules = append(pl.rules, frameRule{kind: kind, p: p, fromPhase: phase})
		case "delay":
			ps, ds, ok := strings.Cut(val, ":")
			if !ok {
				return nil, fmt.Errorf("faultinject: delay wants P:DUR, got %q", val)
			}
			p, err := parseProb(ps)
			if err != nil {
				return nil, fmt.Errorf("faultinject: item %q: %v", item, err)
			}
			d, err := time.ParseDuration(ds)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("faultinject: bad delay duration %q", ds)
			}
			pl.rules = append(pl.rules, frameRule{kind: ruleDelay, p: p, d: d, fromPhase: phase})
		case "sever":
			r, err := strconv.Atoi(val)
			if err != nil || r < 0 {
				return nil, fmt.Errorf("faultinject: bad sever rank %q", val)
			}
			if attempt == 0 {
				if rank == r {
					pl.severs[phase] = append(pl.severs[phase], -1) // all peers
				} else {
					pl.severs[phase] = append(pl.severs[phase], r)
				}
			}
		case "partition":
			a, b, ok := strings.Cut(val, "|")
			if !ok {
				return nil, fmt.Errorf("faultinject: partition wants A|B rank sets, got %q", val)
			}
			as, err := parseRanks(a)
			if err != nil {
				return nil, fmt.Errorf("faultinject: item %q: %v", item, err)
			}
			bs, err := parseRanks(b)
			if err != nil {
				return nil, fmt.Errorf("faultinject: item %q: %v", item, err)
			}
			if attempt == 0 {
				var far map[int]bool
				switch {
				case as[rank]:
					far = bs
				case bs[rank]:
					far = as
				}
				if len(far) > 0 {
					pl.partPhase = phase
					if pl.blackhole == nil {
						pl.blackhole = make(map[int]bool)
					}
					for r := range far {
						pl.blackhole[r] = true
					}
				}
			}
		case "kill":
			r, err := strconv.Atoi(val)
			if err != nil || r < 0 {
				return nil, fmt.Errorf("faultinject: bad kill rank %q", val)
			}
			if attempt == 0 && rank == r {
				pl.killPhase = phase
			}
		case "killhost":
			j, err := strconv.Atoi(val)
			if err != nil || j < 0 {
				return nil, fmt.Errorf("faultinject: bad killhost proc %q", val)
			}
			// Armed on EVERY attempt: the host stays dead until the
			// supervisor stops scheduling a process with its index.
			if proc == j {
				pl.killPhase = phase
			}
		default:
			return nil, fmt.Errorf("faultinject: unknown item %q", key)
		}
	}
	return pl, nil
}

func cutPhase(val string) (string, int64, error) {
	base, suffix, ok := strings.Cut(val, "@")
	if !ok {
		return val, 0, nil
	}
	ks, ok := strings.CutPrefix(suffix, "phase:")
	if !ok {
		return "", 0, fmt.Errorf("bad suffix %q (want @phase:K)", suffix)
	}
	k, err := strconv.ParseInt(ks, 10, 64)
	if err != nil || k < 0 {
		return "", 0, fmt.Errorf("bad phase %q", ks)
	}
	return base, k, nil
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil || p < 0 || p > 1 {
		return 0, fmt.Errorf("bad probability %q (want [0, 1])", s)
	}
	return p, nil
}

func parseRanks(s string) (map[int]bool, error) {
	out := make(map[int]bool)
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		r, err := strconv.Atoi(f)
		if err != nil || r < 0 {
			return nil, fmt.Errorf("bad rank %q", f)
		}
		out[r] = true
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty rank set %q", s)
	}
	return out, nil
}

// SetPhase records the global phase whose commit the engine is entering;
// phase-armed items key off it.
func (pl *Plan) SetPhase(phase int64) { pl.phase.Store(phase) }

// KillNow reports whether this rank must die at the given phase boundary.
func (pl *Plan) KillNow(phase int64) bool {
	return pl.killPhase >= 0 && phase == pl.killPhase
}

// SeverNow returns the peers whose connections this rank must close at
// the given phase boundary; a single -1 entry means every peer.
func (pl *Plan) SeverNow(phase int64) []int { return pl.severs[phase] }

// blackholed reports whether all traffic to dst is silently discarded
// (the partition fault: the link looks alive but carries nothing, which
// is exactly what the heartbeat detector exists to catch).
func (pl *Plan) blackholed(dst int) bool {
	return pl.partPhase >= 0 && pl.blackhole[dst] && pl.phase.Load() >= pl.partPhase
}

// Writer returns w with the plan's frame faults toward peer dst applied.
// Each Write must carry whole frames, as a link's bundles do. It walks
// them in order and draws each one's fate from the (rank, dst) stream:
// a blackholed or dropped frame vanishes; before a delayed one, what is
// ready goes out and the writer sleeps; a truncated one is re-framed,
// its payload (for a commit frame, header and chunk together) cut to
// half under a correct length prefix, so the receiver sees a clean decode
// error rather than a desynced stream; a duplicated one goes twice.
func (pl *Plan) Writer(dst int, w io.Writer) io.Writer {
	return &faultWriter{pl: pl, dst: dst, w: w, r: rng.New(pl.seed).Split(uint64(pl.rank)<<20 | uint64(dst+1))}
}

type faultWriter struct {
	pl  *Plan
	dst int
	r   *rng.RNG // the (rank, dst) decision stream
	w   io.Writer
	buf []byte // what survives of the bundle so far, reused
}

// frame decides the fate of the next frame. Decisions consume the stream
// in frame order, so a replay with the same spec makes the same calls on
// the same frames.
func (fw *faultWriter) frame() frameFault {
	phase := fw.pl.phase.Load()
	var f frameFault
	for _, rule := range fw.pl.rules {
		if phase < rule.fromPhase || fw.r.Float64() >= rule.p {
			continue
		}
		switch rule.kind {
		case ruleDrop:
			f.drop = true
		case ruleDelay:
			f.delay += rule.d
		case ruleDup:
			f.dup = true
		case ruleTrunc:
			f.trunc = true
		}
	}
	return f
}

func (fw *faultWriter) Write(p []byte) (int, error) {
	for rest := p; len(rest) >= wire.FrameHeaderBytes; {
		frame := rest[:4+binary.LittleEndian.Uint32(rest)] // the prefix counts kind and payload
		rest = rest[len(frame):]
		if fw.pl.blackholed(fw.dst) {
			continue
		}
		f := fw.frame()
		if f.delay > 0 {
			if err := fw.flush(); err != nil {
				return 0, err
			}
			time.Sleep(f.delay)
		}
		if f.drop {
			continue
		}
		start := len(fw.buf)
		fw.buf = append(fw.buf, frame...)
		if n := len(frame) - wire.FrameHeaderBytes; f.trunc && n > 0 {
			fw.buf = fw.buf[:start+wire.FrameHeaderBytes+n/2]
			binary.LittleEndian.PutUint32(fw.buf[start:], uint32(1+n/2))
		}
		if f.dup {
			fw.buf = append(fw.buf, fw.buf[start:]...)
		}
	}
	if err := fw.flush(); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (fw *faultWriter) flush() error {
	if len(fw.buf) == 0 {
		return nil
	}
	_, err := fw.w.Write(fw.buf)
	fw.buf = fw.buf[:0]
	return err
}
