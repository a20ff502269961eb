package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// WriterRef identifies one VP that updated a conflicted element, and
// how (plain write or combining add).
type WriterRef struct {
	Node int  // source node
	VP   int  // VP rank within that node
	Add  bool // true when the update was an Add
}

func (w WriterRef) String() string {
	kind := "write"
	if w.Add {
		kind = "add"
	}
	return fmt.Sprintf("VP %d:%d (%s)", w.Node, w.VP, kind)
}

// WriteConflict is one element of a shared array that received
// conflicting updates within a single phase under StrictWrites: more
// than one VP wrote it, or one VP wrote it while another added to it
// (the model leaves such an element's end-of-phase value undefined).
// Adds combining with adds are not conflicts.
type WriteConflict struct {
	Array   string      // shared-array name
	Node    int         // destination node (the instance, for node arrays)
	Index   int         // element index
	Writers []WriterRef // every involved VP, in apply order
}

func (c WriteConflict) String() string {
	s := fmt.Sprintf("core: conflicting writes to %s[%d] in one phase:", c.Array, c.Index)
	for i, w := range c.Writers {
		if i > 0 {
			s += " and"
		}
		s += " " + w.String()
	}
	return s
}

// conflictKey identifies a conflicted element across a run.
type conflictKey struct {
	array string
	node  int
	index int
}

// conflictLog accumulates every strict-mode conflict of a run, keeping
// discovery order. Like the rest of globalState it is mutated only
// under the cluster's cooperative turn discipline, so it needs no lock.
type conflictLog struct {
	order []*WriteConflict
	byKey map[conflictKey]*WriteConflict
}

// note records that writer updated a conflicted element, creating the
// conflict entry on first sight and appending previously unseen
// writers.
func (l *conflictLog) note(array string, node, index int, writers ...WriterRef) *WriteConflict {
	if l.byKey == nil {
		l.byKey = map[conflictKey]*WriteConflict{}
	}
	k := conflictKey{array, node, index}
	c := l.byKey[k]
	if c == nil {
		c = &WriteConflict{Array: array, Node: node, Index: index}
		l.byKey[k] = c
		l.order = append(l.order, c)
	}
	for _, w := range writers {
		seen := false
		for _, have := range c.Writers {
			if have == w {
				seen = true
				break
			}
		}
		if !seen {
			c.Writers = append(c.Writers, w)
		}
	}
	return c
}

// list returns the run's conflicts in discovery order.
func (l *conflictLog) list() []WriteConflict {
	out := make([]WriteConflict, len(l.order))
	for i, c := range l.order {
		out[i] = *c
	}
	return out
}

func writerRef(writer int64, add bool) WriterRef {
	return WriterRef{Node: int(writer >> 32), VP: int(writer & 0xffffffff), Add: add}
}

// HazardKind names the breach of phase semantics a Hazard records.
type HazardKind uint8

const (
	// StaleRead: a VP read an element it had written or added earlier in
	// the same phase. The read returns the begin-of-phase value, as phase
	// semantics define, so the run goes on; the new value is visible only
	// from the next phase on.
	StaleRead HazardKind = iota + 1
	// LocalWrite: a node's partition of a Global, or its instance of a
	// Node array, changed while a Do ran by some path other than a commit:
	// a write through a slice Local returned before the Do. It fails the
	// run, as a write conflict does.
	LocalWrite
)

func (k HazardKind) String() string {
	switch k {
	case StaleRead:
		return "stale read"
	case LocalWrite:
		return "write around the commit"
	default:
		return "invalid hazard"
	}
}

// HazardExamples is how many of its hazards a Hazard row names.
const HazardExamples = 4

// Hazard is one row of the breaches of phase semantics a StrictWrites
// run finds besides write conflicts: every hazard of one kind in one
// array found at the commit of one phase, counted, with the first
// HazardExamples of them in (node, VP, index) order. A stale read counts
// once per reading VP and element.
type Hazard struct {
	Kind     HazardKind
	Array    string       // shared-array name
	Phase    int64        // the nodes' phase sequence number (phases committed, this one included)
	Count    int          // hazards in the row
	Examples []HazardSite // its first HazardExamples in (node, VP, index) order
}

// HazardSite is where one hazard of a row lies.
type HazardSite struct {
	Node  int // the reading VP's node, or the node whose storage changed
	VP    int // the reading VP's rank in its Do; -1 for a LocalWrite, which no VP signs
	Index int // element index (in the node's instance, for node arrays)
}

func (s HazardSite) compare(o HazardSite) int {
	return cmp.Or(cmp.Compare(s.Node, o.Node), cmp.Compare(s.VP, o.VP), cmp.Compare(s.Index, o.Index))
}

func (h Hazard) String() string {
	var b strings.Builder
	if h.Kind == StaleRead {
		fmt.Fprintf(&b, "core: %d stale reads of %s in phase %d, each of an element the reading VP updated earlier in the phase (the read sees the begin-of-phase value):", h.Count, h.Array, h.Phase)
	} else {
		fmt.Fprintf(&b, "core: %d elements of %s changed outside the commit of phase %d, by a write through a slice Local returned before the Do:", h.Count, h.Array, h.Phase)
	}
	for i, e := range h.Examples {
		if i > 0 {
			b.WriteByte(',')
		}
		if h.Kind == StaleRead {
			fmt.Fprintf(&b, " VP %d:%d reads %s[%d]", e.Node, e.VP, h.Array, e.Index)
		} else {
			fmt.Fprintf(&b, " %s[%d] on node %d", h.Array, e.Index, e.Node)
		}
	}
	if h.Count > len(h.Examples) {
		b.WriteString(", ...")
	}
	return b.String()
}

// keep inserts e into h's examples in order, if it is one of the first
// HazardExamples.
func (h *Hazard) keep(e HazardSite) {
	i := len(h.Examples)
	for i > 0 && e.compare(h.Examples[i-1]) < 0 {
		i--
	}
	if i == HazardExamples {
		return
	}
	if len(h.Examples) < HazardExamples {
		h.Examples = append(h.Examples, HazardSite{})
	}
	copy(h.Examples[i+1:], h.Examples[i:])
	h.Examples[i] = e
}

// noteHazard counts a hazard at site e into the row of rows[from:] of its
// kind and array (all of one phase), adding the row if there is none.
func noteHazard(rows []Hazard, from int, kind HazardKind, array string, phase int64, e HazardSite) []Hazard {
	i := len(rows) - 1
	for i >= from && (rows[i].Kind != kind || rows[i].Array != array) {
		i--
	}
	if i < from {
		rows = append(rows, Hazard{Kind: kind, Array: array, Phase: phase})
		i = len(rows) - 1
	}
	rows[i].Count++
	rows[i].keep(e)
	return rows
}

// MergeHazards returns the rows of every list merged into one list: rows
// of one kind, array and phase become one, their counts summed and their
// examples the first HazardExamples of theirs. The rows come in (phase,
// kind, array) order. A run's Report.Hazards is its nodes' rows merged,
// so the rows of a mesh's ranks merge into the simulator's.
func MergeHazards(lists ...[]Hazard) []Hazard {
	type key struct {
		kind  HazardKind
		array string
		phase int64
	}
	var out []Hazard
	at := map[key]int{}
	for _, list := range lists {
		for _, h := range list {
			k := key{h.Kind, h.Array, h.Phase}
			i, ok := at[k]
			if !ok {
				at[k] = len(out)
				out = append(out, Hazard{Kind: h.Kind, Array: h.Array, Phase: h.Phase})
				i = len(out) - 1
			}
			out[i].Count += h.Count
			for _, e := range h.Examples {
				out[i].keep(e)
			}
		}
	}
	slices.SortFunc(out, func(a, b Hazard) int {
		return cmp.Or(cmp.Compare(a.Phase, b.Phase), cmp.Compare(a.Kind, b.Kind), strings.Compare(a.Array, b.Array))
	})
	return out
}

// snapLocal copies the node's storage of every array aside (StrictWrites
// only), at the start of a Do and after each commit has applied.
func (d *doRun) snapLocal() {
	for _, arr := range d.rt.gs.arrays {
		arr.snapLocal(d.node)
	}
}

// strictCommit is StrictWrites' part of the commit of phase seq (and of
// the end of the Do, from finish), run by the coordinator before the
// commit touches any storage. It takes the stale reads the VPs found,
// empties their write sets, and reports every element of the node's
// storage that changed since snapLocal: no commit ran in between, so a
// write through a retained Local slice did it. The first such write is
// the returned error. (A VP's write between two phases races with the
// first one's commit, which may take it for committed state; one inside
// a phase, before the first or in a Do without phases is always found.)
func (d *doRun) strictCommit(seq int64) error {
	gs := d.rt.gs
	hs := gs.hazards[d.node]
	from := len(hs)
	for i := range d.strictVPs {
		s := &d.strictVPs[i]
		for _, k := range s.stale {
			hs = noteHazard(hs, from, StaleRead, gs.arrays[k.array()].label(), seq, HazardSite{Node: d.node, VP: i, Index: k.idx()})
		}
		s.stale = s.stale[:0]
		clear(s.written)
	}
	var err error
	var idx []int
	for _, arr := range gs.arrays {
		idx = arr.appendChanged(d.node, idx[:0])
		for _, i := range idx {
			if err == nil {
				err = fmt.Errorf("core: %s[%d] on node %d changed outside the commit of phase %d: a write through a slice Local returned before the Do",
					arr.label(), i, d.node, seq)
			}
			hs = noteHazard(hs, from, LocalWrite, arr.label(), seq, HazardSite{Node: d.node, VP: -1, Index: i})
		}
	}
	gs.hazards[d.node] = hs
	return err
}

// noteStrict records err as a strict-mode violation of the run; under
// the simulator in the node's serial section, so that the first in
// sequential order wins whichever scheduler runs the nodes.
func (d *doRun) noteStrict(err error) {
	gs := d.rt.gs
	if d.rt.proc == nil {
		gs.noteStrict(err)
		return
	}
	d.rt.proc.Serial(func() { gs.noteStrict(err) })
}
