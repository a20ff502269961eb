// Package ignore exercises //ppmvet:ignore handling: a standalone
// annotation suppresses the next line, rule names cover their dotted
// sub-rules, and the two cases that must NOT suppress — a wrong rule
// name, and an end-of-line annotation on the previous line.
package ignore

import "ppm"

// scatter is deliberately non-affine, to provoke phaserace.possible.
func scatter(vp *ppm.VP) int { return vp.NodeRank() % 3 }

func Run(rt *ppm.Runtime) {
	a := ppm.AllocGlobal[float64](rt, "a", 8)
	b := ppm.AllocGlobal[float64](rt, "b", 8)
	c := ppm.AllocGlobal[float64](rt, "c", 8)
	d := ppm.AllocGlobal[float64](rt, "d", 8)
	e := ppm.AllocGlobal[float64](rt, "e", 8)
	rt.Do(4, func(vp *ppm.VP) {
		vp.GlobalPhase(func() {
			//ppmvet:ignore phaserace -- exact rule name suppresses the next line
			a.Write(vp, 0, 1.0)

			//ppmvet:ignore -- a bare annotation suppresses every rule
			b.Write(vp, 0, 1.0)

			//ppmvet:ignore phaserace -- the name covers phaserace.possible too
			c.Write(vp, scatter(vp), 1.0)

			//ppmvet:ignore runerror -- wrong rule: must not suppress
			d.Write(vp, 0, 1.0) // want `overlapping elements of d`

			x := 0              //ppmvet:ignore phaserace -- end-of-line: own line only
			e.Write(vp, x, 1.0) // want `overlapping elements of e`
		})
	})
}
