package analysis

import (
	"fmt"
	"go/types"
	"strings"
)

// StaleReadAnalyzer flags a Read of a shared element after a Write/Add
// of the same element in the same phase body. Phase semantics make every
// read observe the begin-of-phase value: the freshly written value is
// not visible until the implicit barrier at the phase's end, so code
// that reads back what it just wrote is (perhaps surprisingly) reading
// the old value. Read-then-write is the intended idiom and is not
// flagged; neither are accesses in different phases.
//
// The rule matches elements two ways: semantically, by the affine form
// of the index with helper arguments substituted (so a write performed
// inside a helper and a read of the same element back in the phase body
// match), and syntactically within one function frame, for indices the
// affine resolver cannot decompose.
var StaleReadAnalyzer = &Analyzer{
	Name: "staleread",
	Doc: "report same-phase read-after-write of one shared element: the read " +
		"observes the begin-of-phase value, not the value written this phase",
	Run: runStaleRead,
}

func runStaleRead(pass *Pass) error {
	px := pass.Index()
	rv := newResolver(px)
	for lit, isPhase := range px.ctx.phaseLits {
		if !isPhase {
			continue
		}
		if u := px.units[lit]; u != nil {
			checkStaleReads(pass, px, rv, u)
		}
	}
	return nil
}

// srKey identifies one shared element within one phase walk.
type srKey struct {
	arr   any // types.Object when resolvable, else the printed receiver
	block bool
	idx   string
}

// checkStaleReads walks one phase body (expanding helpers) in execution
// order. Writes are recorded when emitted; since walkOps visits a
// call's arguments before the call itself, a read nested in the write's
// own arguments (`a.Write(vp, i, a.Read(vp, i)+1)`) is seen first and
// not flagged.
func checkStaleReads(pass *Pass, px *PkgIndex, rv *resolver, phase *unit) {
	type written struct{ method string }
	sem := map[srKey]written{} // affine-matched elements
	syn := map[srKey]written{} // syntactic fallback, per frame
	px.walkOps(&frame{unit: phase}, map[*unit]bool{}, func(op opSite) {
		env := envOf(op.fr, op.loops)
		var arrKey any = types.ExprString(op.sc.recv)
		if arr := rv.arrayObj(op.sc.recv, env); arr != nil {
			arrKey = arr
		}
		var semParts, synParts []string
		affOK := true
		for _, idx := range op.sc.indices {
			synParts = append(synParts, types.ExprString(idx))
			a := rv.exprAffine(idx, env)
			if a.OK {
				semParts = append(semParts, rv.canon(a))
			} else {
				affOK = false
			}
		}
		semKey := srKey{arr: arrKey, block: op.sc.block, idx: strings.Join(semParts, ",")}
		synKey := srKey{arr: arrKey, block: op.sc.block,
			idx: fmt.Sprintf("%p|%s", op.fr, strings.Join(synParts, ","))}
		if op.sc.write {
			if affOK {
				if _, seen := sem[semKey]; !seen {
					sem[semKey] = written{op.sc.method}
				}
			}
			if _, seen := syn[synKey]; !seen {
				syn[synKey] = written{op.sc.method}
			}
			return
		}
		w, seen := written{}, false
		if affOK {
			w, seen = sem[semKey]
		}
		if !seen {
			w, seen = syn[synKey]
		}
		if seen {
			pass.Reportf(op.fr.reportPos(op.sc.call.Pos()),
				"%s.%s(%s) after %s in the same phase reads the begin-of-phase value: writes only commit at the phase's end barrier — split the phases if the new value is needed",
				types.ExprString(op.sc.recv), op.sc.method, strings.Join(synParts, ","), w.method)
		}
	})
}
