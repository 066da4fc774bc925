package fusion

// Dense 4×4 algebra: the textbook P = F P Fᵀ + Q propagation that
// TestPredictMatchesDenseAlgebra pins KalmanCV.Predict's specialised
// form against. Only the test needs it.

// identity4 returns the identity matrix.
func identity4() Mat4 {
	var m Mat4
	m[0], m[5], m[10], m[15] = 1, 1, 1, 1
	return m
}

// mul4 multiplies two 4×4 matrices.
func mul4(a, b Mat4) Mat4 {
	var c Mat4
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			var s float64
			for k := 0; k < 4; k++ {
				s += a[i*4+k] * b[k*4+j]
			}
			c[i*4+j] = s
		}
	}
	return c
}

// transpose4 transposes a 4×4 matrix.
func transpose4(a Mat4) Mat4 {
	var t Mat4
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			t[j*4+i] = a[i*4+j]
		}
	}
	return t
}

// add4 adds two 4×4 matrices.
func add4(a, b Mat4) Mat4 {
	var c Mat4
	for i := range c {
		c[i] = a[i] + b[i]
	}
	return c
}

// mulVec4 multiplies a 4×4 matrix by a vector.
func mulVec4(a Mat4, v Vec4) Vec4 {
	var r Vec4
	for i := 0; i < 4; i++ {
		r[i] = a[i*4]*v[0] + a[i*4+1]*v[1] + a[i*4+2]*v[2] + a[i*4+3]*v[3]
	}
	return r
}
