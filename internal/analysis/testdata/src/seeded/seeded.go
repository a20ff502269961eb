// Package seeded plants one bug per ppmvet rule, each hidden one
// helper-call level below its use site. The corpus test asserts every
// rule reports on its SEED-marked line, pinning the interprocedural
// layer end to end. (Lines are marked `SEED:<rule>`; a marker sits on
// the line where the rule is expected to report, which is the phase-
// level call site for call-expanded rules and the helper body for
// rules that report in place.)
package seeded

import "ppm"

// writeAt hides a shared write one level down. Called both outside any
// phase (the phasebound seed reports here, inside the helper) and with
// a constant index from a phase (phaserace reports at that call site).
func writeAt(vp *ppm.VP, g *ppm.Global[float64], i int) {
	g.Write(vp, i, 1.0) // SEED:phasebound
}

// readAt hides a shared read one level down.
func readAt(vp *ppm.VP, g *ppm.Global[float64], i int) float64 {
	return g.Read(vp, i)
}

// peekBase touches the base image from VP code; localalias reports in
// the helper body because the helper takes a *VP.
func peekBase(rt *ppm.Runtime, vp *ppm.VP, g *ppm.Global[float64]) float64 {
	return g.Local(rt)[0] // SEED:localalias
}

// bumpHost stores through its pointer parameter; serialescape reports
// at call sites that pass host state in.
func bumpHost(c *int) { *c++ }

// keepSlice returns its argument; blockretain reports at call sites
// that pass a phase block source in.
func keepSlice(s []float64) []float64 { return s }

// runModel forwards ppm.Run's error, so discarding runModel's own
// result discards a watched error.
func runModel(prog func(rt *ppm.Runtime)) error {
	_, err := ppm.Run(ppm.Options{}, prog)
	return err
}

func Host() {
	count := 0
	runModel(func(rt *ppm.Runtime) { // SEED:runerror
		g := ppm.AllocGlobal[float64](rt, "g", 64)
		rt.Do(4, func(vp *ppm.VP) {
			writeAt(vp, g, vp.GlobalRank()) // outside any phase: phasebound fires in the helper
			vp.GlobalPhase(func() {
				writeAt(vp, g, 7)    // SEED:phaserace
				_ = readAt(vp, g, 7) // SEED:staleread
				_ = peekBase(rt, vp, g)
				bumpHost(&count) // SEED:serialescape
				src := make([]float64, 4)
				g.WriteBlock(vp, 8, src)
				_ = keepSlice(src) // SEED:blockretain
			})
		})
	})
	_ = count
}
