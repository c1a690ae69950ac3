package geom

import "math"

// SolveLinear solves the n×n linear system A·x = b by Gaussian elimination
// with partial pivoting. It returns (x, true) when the system has a unique
// solution and (nil, false) when the matrix is singular within Eps.
//
// The inputs are not modified. n is small throughout this repository (the
// ambient dimension d ≤ 4), so no blocking or pivot scaling is needed.
func SolveLinear(a [][]float64, b []float64) ([]float64, bool) {
	n := len(a)
	// Work on copies.
	m := make([][]float64, n)
	for i := range a {
		m[i] = append([]float64(nil), a[i]...)
		m[i] = append(m[i], b[i])
	}
	for col := 0; col < n; col++ {
		// Partial pivot: the row with the largest |entry| in this column.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) <= Eps {
			return nil, false
		}
		m[col], m[pivot] = m[pivot], m[col]
		inv := 1 / m[col][col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = m[i][n] / m[i][i]
	}
	return x, true
}
