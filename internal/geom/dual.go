package geom

// FDual evaluates F_{D(v)} at a slope vector b for a primal point v:
// F_{D(v)}(b) = −v1·b1 − … − v_{d−1}·b_{d−1} + v_d. For a polyhedron P,
// TOP^P(b) = max over vertices v of FDual(v, b) (Section 2.1), which is
// exactly what Polyhedron.Top computes via the support function.
//
// The engine never builds the Section 2.1 transform of a hyperplane
// a1·x1 + … + ad·xd + c = 0 explicitly; its slope-intercept form is
// x_d = b1·x1 + … + b_d with b_i = −a_i/a_d and b_d = −c/a_d. The paper's
// Section 2.1 prints b_d = c/a_d, but its own Example 2.1 and
// Proposition 2.2 require the line y = b1·x + b_d to be the hyperplane
// itself, which forces b_d = −c/a_d; the engine follows that reading
// (HalfSpace.SlopeForm).
func FDual(v Point, b []float64) float64 {
	s := v[len(v)-1]
	for i := 0; i < len(v)-1; i++ {
		s -= v[i] * b[i]
	}
	return s
}
