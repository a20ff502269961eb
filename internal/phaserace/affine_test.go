package phaserace

import "testing"

// The solver rests on this small symbolic arithmetic; these tests pin
// its algebra directly.

var (
	rank  = Sym{Kind: NodeRank}
	grank = Sym{Kind: GlobalRank}
)

func TestAffineArithmetic(t *testing.T) {
	// 2*rank + 3
	a := Of(rank).Scale(2).Add(Const(3))
	if !a.OK || a.C != 3 || a.Coef(rank) != 2 {
		t.Fatalf("2*rank+3 built wrong: %+v", a)
	}
	// (2*rank + 3) - 2*rank = 3: matching symbols cancel exactly.
	d := a.Sub(Of(rank).Scale(2))
	if c, ok := d.IsConst(); !ok || c != 3 {
		t.Errorf("difference = %+v, want constant 3", d)
	}
	// Mixed symbols do not cancel.
	m := a.Sub(Of(grank).Scale(2))
	if _, ok := m.IsConst(); ok {
		t.Errorf("rank - grank collapsed to a constant: %+v", m)
	}
	if m.Coef(rank) != 2 || m.Coef(grank) != -2 {
		t.Errorf("mixed difference coefficients wrong: %+v", m)
	}
	if w := a.Without(rank); !w.Equal(Const(3)) {
		t.Errorf("(2*rank+3) without rank = %+v, want 3", w)
	}
}

func TestAffineEqualIgnoresZeroCoefficients(t *testing.T) {
	a := Const(5)
	b := Of(rank).Add(Const(5)).Sub(Of(rank)) // 5 with a cancelled term
	if !a.Equal(b) || !b.Equal(a) {
		t.Errorf("equal must ignore zero coefficients: %+v vs %+v", a, b)
	}
}

func TestAffineBadPropagates(t *testing.T) {
	bad := Affine{}
	for name, a := range map[string]Affine{
		"add":       bad.Add(Const(1)),
		"sub":       Const(1).Sub(bad),
		"scale":     bad.Scale(2),
		"addScaled": Const(0).AddScaled(bad, 3),
	} {
		if a.OK {
			t.Errorf("%s of a non-affine form claims affine: %+v", name, a)
		}
	}
	if _, ok := bad.IsConst(); ok {
		t.Error("non-affine form reports a constant value")
	}
	if bad.Equal(bad) || bad.Only(Uniform) || bad.RankFree() {
		t.Error("a non-affine form equals itself or claims a uniformity class")
	}
}

func TestAffineScaleZeroDropsSymbols(t *testing.T) {
	z := Of(rank).Scale(0)
	if c, ok := z.IsConst(); !ok || c != 0 {
		t.Errorf("0 * rank = %+v, want constant 0", z)
	}
}

func TestAffineClasses(t *testing.T) {
	u := Of(Sym{Kind: Uniform, Key: "n"})
	loop := Of(Sym{Kind: Loop, Key: 0, N: 4})
	if !u.Add(loop).RankFree() || u.Add(Of(rank)).RankFree() || Of(Sym{Kind: NodeVar}).RankFree() {
		t.Error("RankFree admits exactly uniform, loop and varying symbols")
	}
	if !u.Only(Uniform) || u.Add(loop).Only(Uniform) || !Const(2).Only(Uniform) {
		t.Error("Only admits exactly the listed kinds")
	}
	if GuardOf(Of(rank).Sub(Const(0))) != OnePerNode || GuardOf(Of(grank).Sub(u)) != OneInCluster ||
		GuardOf(Of(rank).Sub(Of(grank))) != Everyone || GuardOf(Affine{}) != Everyone {
		t.Error("GuardOf misclassifies a rank == c condition")
	}
}
