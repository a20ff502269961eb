package lang

import (
	"fmt"
	"io"
	"math"
	"strings"

	"ppm/internal/core"
)

// value is a runtime value (ints and floats; bools exist transiently).
type value struct {
	t Type
	i int64
	f float64
	b bool
}

func intVal(i int64) value     { return value{t: TypeInt, i: i} }
func floatVal(f float64) value { return value{t: TypeFloat, f: f} }
func boolVal(b bool) value     { return value{t: TypeBool, b: b} }

func (v value) String() string {
	switch v.t {
	case TypeInt:
		return fmt.Sprintf("%d", v.i)
	case TypeFloat:
		return fmt.Sprintf("%g", v.f)
	case TypeBool:
		return fmt.Sprintf("%t", v.b)
	default:
		return "<invalid>"
	}
}

// sharedHandle binds a declared shared array to its runtime object.
type sharedHandle struct {
	decl *SharedDecl
	gi   *core.Global[int64]
	gf   *core.Global[float64]
	ni   *core.Node[int64]
	nf   *core.Node[float64]
}

// frame is the execution context of a statement: the node runtime, the
// current VP (nil in main), and whether a phase is open.
type frame struct {
	in      *interp
	rt      *core.Runtime
	vp      *core.VP
	inPhase bool
	scopes  []map[string]*value
}

// interp holds one node's interpreter state.
type interp struct {
	prog   *Program
	consts map[string]int64
	shared map[string]*sharedHandle
	funcs  map[string]*FuncDecl
	out    io.Writer
}

// Interpret type-checks and executes the program on a simulated PPM
// cluster. Program output (print statements) goes to out in deterministic
// order; pass nil to discard it.
func Interpret(prog *Program, opt core.Options, out io.Writer) (*core.Report, error) {
	if err := Check(prog); err != nil {
		return nil, err
	}
	if out == nil {
		out = io.Discard
	}
	return core.Run(opt, func(rt *core.Runtime) {
		in := &interp{
			prog:   prog,
			consts: map[string]int64{},
			shared: map[string]*sharedHandle{},
			funcs:  map[string]*FuncDecl{},
			out:    out,
		}
		for _, d := range prog.Consts {
			in.consts[d.Name] = d.Value
		}
		for _, f := range prog.Funcs {
			in.funcs[f.Name] = f
		}
		fr := &frame{in: in, rt: rt, scopes: []map[string]*value{{}}}
		// Allocate shared arrays in declaration order (collective).
		for _, d := range prog.Shared {
			size := fr.eval(d.Size)
			h := &sharedHandle{decl: d}
			n := int(size.i)
			switch {
			case d.GlobalScope && d.Elem == TypeInt:
				h.gi = core.AllocGlobal[int64](rt, d.Name, n)
			case d.GlobalScope && d.Elem == TypeFloat:
				h.gf = core.AllocGlobal[float64](rt, d.Name, n)
			case !d.GlobalScope && d.Elem == TypeInt:
				h.ni = core.AllocNode[int64](rt, d.Name, n)
			default:
				h.nf = core.AllocNode[float64](rt, d.Name, n)
			}
			in.shared[d.Name] = h
		}
		fr.execBlock(prog.Main)
	})
}

// InterpretSource is the one-call form: parse, check, run.
func InterpretSource(src string, opt core.Options, out io.Writer) (*core.Report, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Interpret(prog, opt, out)
}

func (fr *frame) fail(pos Token, format string, args ...any) {
	panic(errf(pos.Line, pos.Col, "runtime: %s", fmt.Sprintf(format, args...)))
}

func (fr *frame) push() { fr.scopes = append(fr.scopes, map[string]*value{}) }
func (fr *frame) pop()  { fr.scopes = fr.scopes[:len(fr.scopes)-1] }

func (fr *frame) declare(name string, v value) {
	nv := v
	fr.scopes[len(fr.scopes)-1][name] = &nv
}

func (fr *frame) lookup(name string) *value {
	for i := len(fr.scopes) - 1; i >= 0; i-- {
		if v, ok := fr.scopes[i][name]; ok {
			return v
		}
	}
	return nil
}

func (fr *frame) execBlock(b *Block) {
	fr.push()
	defer fr.pop()
	for _, s := range b.Stmts {
		fr.exec(s)
	}
}

func (fr *frame) exec(s Stmt) {
	switch st := s.(type) {
	case *Block:
		fr.execBlock(st)
	case *VarDecl:
		v := value{t: st.Type}
		if st.Init != nil {
			v = fr.eval(st.Init)
		}
		fr.declare(st.Name, v)
	case *Assign:
		fr.execAssign(st)
	case *If:
		if fr.eval(st.Cond).b {
			fr.execBlock(st.Then)
		} else if st.Else != nil {
			fr.execBlock(st.Else)
		}
	case *While:
		for fr.eval(st.Cond).b {
			fr.execBlock(st.Body)
		}
	case *For:
		lo := fr.eval(st.Lo).i
		hi := fr.eval(st.Hi).i
		fr.push()
		fr.declare(st.Var, intVal(lo))
		iv := fr.lookup(st.Var)
		for x := lo; x < hi; x++ {
			iv.i = x
			fr.execBlock(st.Body)
		}
		fr.pop()
	case *Phase:
		body := func() { fr.wasPhase(st) }
		if st.GlobalScope {
			fr.vp.GlobalPhase(body)
		} else {
			fr.vp.NodePhase(body)
		}
	case *Do:
		k := int(fr.eval(st.K).i)
		f := fr.in.funcs[st.Name]
		args := make([]value, len(st.Args))
		for i, a := range st.Args {
			args[i] = fr.eval(a)
		}
		fr.rt.Do(k, func(vp *core.VP) {
			vfr := &frame{in: fr.in, rt: fr.rt, vp: vp, scopes: []map[string]*value{{}}}
			for i, p := range f.Params {
				vfr.declare(p.Name, args[i])
			}
			vfr.execBlock(f.Body)
		})
	case *Print:
		var parts []string
		for _, a := range st.Args {
			if sl, ok := a.(*StrLit); ok {
				parts = append(parts, sl.Value)
				continue
			}
			parts = append(parts, fr.eval(a).String())
		}
		fmt.Fprintln(fr.in.out, strings.Join(parts, " "))
	case *Barrier:
		fr.rt.Barrier()
	case *CallStmt:
		fr.eval(st.Call)
	default:
		panic(fmt.Sprintf("lang: internal: unknown statement %T", s))
	}
}

// wasPhase executes a phase body with the frame marked in-phase.
func (fr *frame) wasPhase(st *Phase) {
	fr.inPhase = true
	defer func() { fr.inPhase = false }()
	fr.execBlock(st.Body)
}

func (fr *frame) execAssign(st *Assign) {
	v := fr.eval(st.Value)
	lv := st.Target
	if lv.Index == nil {
		dst := fr.lookup(lv.Name)
		if st.Add {
			switch dst.t {
			case TypeInt:
				dst.i += v.i
			case TypeFloat:
				dst.f += v.f
			}
			return
		}
		*dst = v
		return
	}
	h := fr.in.shared[lv.Name]
	idx := int(fr.eval(lv.Index).i)
	fr.storeShared(h, idx, v, st.Add, lv.Pos)
}

// storeShared writes or accumulates into a shared array under the current
// context's rules.
func (fr *frame) storeShared(h *sharedHandle, idx int, v value, add bool, pos Token) {
	if fr.vp != nil {
		// Inside a PPM function: phase semantics.
		switch {
		case h.gi != nil:
			if add {
				h.gi.Add(fr.vp, idx, v.i)
			} else {
				h.gi.Write(fr.vp, idx, v.i)
			}
		case h.gf != nil:
			if add {
				h.gf.Add(fr.vp, idx, v.f)
			} else {
				h.gf.Write(fr.vp, idx, v.f)
			}
		case h.ni != nil:
			if add {
				h.ni.Add(fr.vp, idx, v.i)
			} else {
				h.ni.Write(fr.vp, idx, v.i)
			}
		default:
			if add {
				h.nf.Add(fr.vp, idx, v.f)
			} else {
				h.nf.Write(fr.vp, idx, v.f)
			}
		}
		return
	}
	// Node-level setup/extraction: global arrays may only write the
	// owned partition; node arrays are local.
	switch {
	case h.gi != nil:
		lo, hi := h.gi.OwnerRange(fr.rt)
		if idx < lo || idx >= hi {
			fr.fail(pos, "node-level write to %s[%d] outside the owned range [%d,%d) — use a phase", h.decl.Name, idx, lo, hi)
		}
		if add {
			h.gi.Local(fr.rt)[idx-lo] += v.i
		} else {
			h.gi.Local(fr.rt)[idx-lo] = v.i
		}
	case h.gf != nil:
		lo, hi := h.gf.OwnerRange(fr.rt)
		if idx < lo || idx >= hi {
			fr.fail(pos, "node-level write to %s[%d] outside the owned range [%d,%d) — use a phase", h.decl.Name, idx, lo, hi)
		}
		if add {
			h.gf.Local(fr.rt)[idx-lo] += v.f
		} else {
			h.gf.Local(fr.rt)[idx-lo] = v.f
		}
	case h.ni != nil:
		if add {
			h.ni.Local(fr.rt)[idx] += v.i
		} else {
			h.ni.Local(fr.rt)[idx] = v.i
		}
	default:
		if add {
			h.nf.Local(fr.rt)[idx] += v.f
		} else {
			h.nf.Local(fr.rt)[idx] = v.f
		}
	}
}

// loadShared reads a shared array element under the current context.
func (fr *frame) loadShared(h *sharedHandle, idx int) value {
	if fr.vp != nil {
		switch {
		case h.gi != nil:
			return intVal(h.gi.Read(fr.vp, idx))
		case h.gf != nil:
			return floatVal(h.gf.Read(fr.vp, idx))
		case h.ni != nil:
			return intVal(h.ni.Read(fr.vp, idx))
		default:
			return floatVal(h.nf.Read(fr.vp, idx))
		}
	}
	switch {
	case h.gi != nil:
		return intVal(h.gi.At(fr.rt, idx))
	case h.gf != nil:
		return floatVal(h.gf.At(fr.rt, idx))
	case h.ni != nil:
		return intVal(h.ni.Local(fr.rt)[idx])
	default:
		return floatVal(h.nf.Local(fr.rt)[idx])
	}
}

func (fr *frame) eval(e Expr) value {
	switch ex := e.(type) {
	case *IntLit:
		return intVal(ex.Value)
	case *FloatLit:
		return floatVal(ex.Value)
	case *BoolLit:
		return boolVal(ex.Value)
	case *Ident:
		if v, ok := fr.in.consts[ex.Name]; ok {
			return intVal(v)
		}
		if v := fr.lookup(ex.Name); v != nil {
			return *v
		}
		return fr.builtinIdent(ex)
	case *Index:
		h := fr.in.shared[ex.Name]
		idx := int(fr.eval(ex.Inner).i)
		return fr.loadShared(h, idx)
	case *Unary:
		x := fr.eval(ex.X)
		switch ex.Op {
		case MINUS:
			if x.t == TypeInt {
				return intVal(-x.i)
			}
			return floatVal(-x.f)
		default: // NOT
			return boolVal(!x.b)
		}
	case *Binary:
		return fr.evalBinary(ex)
	case *Call:
		return fr.evalCall(ex)
	default:
		panic(fmt.Sprintf("lang: internal: unknown expression %T", e))
	}
}

func (fr *frame) builtinIdent(ex *Ident) value {
	switch ex.Name {
	case "node_id":
		return intVal(int64(fr.rt.NodeID()))
	case "node_count":
		return intVal(int64(fr.rt.NodeCount()))
	case "cores_per_node":
		return intVal(int64(fr.rt.CoresPerNode()))
	case "vp_node_rank":
		return intVal(int64(fr.vp.NodeRank()))
	case "vp_global_rank":
		return intVal(int64(fr.vp.GlobalRank()))
	case "vp_count":
		return intVal(int64(fr.vp.K()))
	default:
		panic(fmt.Sprintf("lang: internal: unknown builtin identifier %q", ex.Name))
	}
}

func (fr *frame) evalCall(ex *Call) value {
	switch ex.Name {
	case "int":
		v := fr.eval(ex.Args[0])
		if v.t == TypeInt {
			return v
		}
		return intVal(int64(v.f))
	case "float":
		v := fr.eval(ex.Args[0])
		if v.t == TypeFloat {
			return v
		}
		return floatVal(float64(v.i))
	case "my_lo", "my_hi":
		name := ex.Args[0].(*Ident).Name
		h := fr.in.shared[name]
		var lo, hi int
		if h.gi != nil {
			lo, hi = h.gi.OwnerRange(fr.rt)
		} else {
			lo, hi = h.gf.OwnerRange(fr.rt)
		}
		if ex.Name == "my_lo" {
			return intVal(int64(lo))
		}
		return intVal(int64(hi))
	case "reduce_sum":
		return floatVal(fr.rt.AllReduce(fr.eval(ex.Args[0]).f, core.OpSum))
	case "reduce_max":
		return floatVal(fr.rt.AllReduce(fr.eval(ex.Args[0]).f, core.OpMax))
	case "prefix_sum":
		return intVal(int64(fr.rt.PrefixSumInt(int(fr.eval(ex.Args[0]).i))))
	case "sqrt":
		return floatVal(math.Sqrt(fr.eval(ex.Args[0]).f))
	case "abs":
		return floatVal(math.Abs(fr.eval(ex.Args[0]).f))
	case "log":
		return floatVal(math.Log(fr.eval(ex.Args[0]).f))
	case "charge_flops":
		n := fr.eval(ex.Args[0]).i
		if fr.vp != nil {
			fr.vp.ChargeFlops(n)
		} else {
			fr.rt.ChargeFlops(n)
		}
		return intVal(n)
	default:
		panic(fmt.Sprintf("lang: internal: unknown builtin call %q", ex.Name))
	}
}

func (fr *frame) evalBinary(ex *Binary) value {
	l := fr.eval(ex.L)
	// Short-circuit logical operators.
	if ex.Op == ANDAND {
		if !l.b {
			return boolVal(false)
		}
		return fr.eval(ex.R)
	}
	if ex.Op == OROR {
		if l.b {
			return boolVal(true)
		}
		return fr.eval(ex.R)
	}
	r := fr.eval(ex.R)
	if l.t == TypeInt {
		switch ex.Op {
		case PLUS:
			return intVal(l.i + r.i)
		case MINUS:
			return intVal(l.i - r.i)
		case STAR:
			return intVal(l.i * r.i)
		case SLASH:
			if r.i == 0 {
				fr.fail(ex.Pos, "integer division by zero")
			}
			return intVal(l.i / r.i)
		case PERCENT:
			if r.i == 0 {
				fr.fail(ex.Pos, "integer modulo by zero")
			}
			return intVal(l.i % r.i)
		case EQ:
			return boolVal(l.i == r.i)
		case NE:
			return boolVal(l.i != r.i)
		case LT:
			return boolVal(l.i < r.i)
		case LE:
			return boolVal(l.i <= r.i)
		case GT:
			return boolVal(l.i > r.i)
		case GE:
			return boolVal(l.i >= r.i)
		}
	}
	switch ex.Op {
	case PLUS:
		return floatVal(l.f + r.f)
	case MINUS:
		return floatVal(l.f - r.f)
	case STAR:
		return floatVal(l.f * r.f)
	case SLASH:
		return floatVal(l.f / r.f)
	case EQ:
		return boolVal(l.f == r.f)
	case NE:
		return boolVal(l.f != r.f)
	case LT:
		return boolVal(l.f < r.f)
	case LE:
		return boolVal(l.f <= r.f)
	case GT:
		return boolVal(l.f > r.f)
	case GE:
		return boolVal(l.f >= r.f)
	}
	panic(fmt.Sprintf("lang: internal: unknown binary op %v", ex.Op))
}
