package dist

import (
	"fmt"
	"time"

	"ppm/internal/wire"
)

// wireOp is one blocking mesh operation, kept as its operands so the hot
// paths record it without formatting anything; String runs only when an
// error is built.
type wireOp struct {
	kind opKind
	// opFetch: peer is the owner, n the range count, first the first range.
	// opRecv: peer is the source, tag the tag. opCommit: phase.
	peer, n int
	first   wire.ReadRange
	tag     int
	phase   int64
}

type opKind uint8

const (
	opFetch opKind = iota + 1
	opRecv
	opCommit
)

func (o wireOp) String() string {
	switch o.kind {
	case opFetch:
		s := fmt.Sprintf("remote read of array %d [%d:%d)", o.first.Array, o.first.Lo, o.first.Hi)
		if o.n > 1 {
			s += fmt.Sprintf(" and %d more ranges", o.n-1)
		}
		return fmt.Sprintf("%s from rank %d", s, o.peer)
	case opRecv:
		return fmt.Sprintf("node-level recv (src=%d, tag=%d)", o.peer, o.tag)
	default:
		return fmt.Sprintf("commit exchange for phase %d", o.phase)
	}
}

// beginOp records a mesh operation this rank is about to block on, so
// detector errors can name it; endOp removes it (any equal record: equal
// operations are interchangeable).
func (e *Engine) beginOp(op wireOp) {
	e.opMu.Lock()
	e.ops = append(e.ops, op)
	e.opMu.Unlock()
}

func (e *Engine) endOp(op wireOp) {
	e.opMu.Lock()
	for i := range e.ops {
		if e.ops[i] == op {
			last := len(e.ops) - 1
			e.ops[i] = e.ops[last]
			e.ops = e.ops[:last]
			break
		}
	}
	e.opMu.Unlock()
}

// currentOp describes what this rank is blocked on: one in-flight
// operation and how many others are in flight beside it.
func (e *Engine) currentOp() string {
	e.opMu.Lock()
	defer e.opMu.Unlock()
	switch n := len(e.ops); n {
	case 0:
		return "local compute (no wire op in flight)"
	case 1:
		return e.ops[0].String()
	default:
		return fmt.Sprintf("%s (and %d more wire ops in flight)", e.ops[0], n-1)
	}
}

// heartbeatLoop is the failure detector: it probes links that have been
// idle outbound for HeartbeatInterval and declares a peer dead when
// nothing at all has arrived from it for HeartbeatTimeout. Any inbound
// frame counts as life, so probes only flow on otherwise-quiet links
// (long pure-compute phases). A dead peer's link is cut.
func (e *Engine) heartbeatLoop() {
	defer e.hbWg.Done()
	t := time.NewTicker(max(e.cfg.HeartbeatInterval/2, 5*time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-e.hbStop:
			return
		case <-e.fatalCh:
			return
		case <-t.C:
		}
		now := time.Now().UnixNano()
		for _, l := range e.links {
			if l == nil || l.sawBye.Load() {
				continue
			}
			silent := time.Duration(now - l.lastRecv.Load())
			if silent > e.cfg.HeartbeatTimeout {
				e.setFatal(fmt.Errorf("dist: rank %d: rank %d unresponsive for %v (heartbeat timeout %v) during %s",
					e.rank, l.id, silent.Round(time.Millisecond), e.cfg.HeartbeatTimeout, e.currentOp()))
				l.cut()
				continue
			}
			if time.Duration(now-l.lastSent.Load()) >= e.cfg.HeartbeatInterval {
				l.trySend(outFrame{kind: wire.KindPing})
			}
		}
	}
}
