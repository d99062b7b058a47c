// Package vec holds exact vector kernels for the scheduler's
// heavy-feature path and its networks' inference.
//
// Invariant: every kernel returns bit for bit what its plain scalar
// loop returns, on every CPU. A faster path may reorder memory traffic
// and run several outputs at once, but each output sees the same
// operations in the same order, each rounded to float64 on its own.
package vec

// Accumulate adds Σ c[i]·rows[i][j] over ascending i with c[i] ≠ 0
// into out[j]: the plain loop
//
//	for i, ci := range c {
//		if ci != 0 {
//			for j := range out {
//				out[j] += ci * rows[i][j]
//			}
//		}
//	}
//
// with every product and every sum rounded separately. out's values are
// the starting sums, so a caller that wants the bare sum clears out
// first and one that wants a bias copies it in. Rows whose coefficient
// is zero are skipped rather than multiplied, because 0·r is not a
// no-op when r is infinite (0·Inf is NaN). Each row read must hold at
// least len(out) values; rows[i] is not read when c[i] is zero. nz is
// reusable scratch for the nonzero row indices; Accumulate returns it.
//
// On amd64 CPUs with AVX (and the OS saving YMM state), the sum runs in
// assembly with one output per vector lane; everywhere else it runs in
// the register-blocked Go kernel. Both give the plain loop's bits.
func Accumulate(out, c []float64, rows [][]float64, nz []int32) []int32 {
	nz = nonzeroRows(nz, c, rows, len(out))
	accumulate(out, c, rows, nz)
	return nz
}

// AccumulateRows is Accumulate over the rows idx names, in idx's order,
// zero coefficients included: out[j] += c[i]·rows[i][j] for each i in
// idx. A caller whose zero coefficients must still be multiplied (a
// row may hold an infinity, or a sum may be −0) passes every index.
// Each named row must hold at least len(out) values.
func AccumulateRows(out, c []float64, rows [][]float64, idx []int32) {
	w := len(out)
	for _, i := range idx {
		_ = c[i]
		if len(rows[i]) < w {
			panic("vec: row shorter than the output")
		}
	}
	accumulate(out, c, rows, idx)
}

// accumulate runs the kernel package init picked on checked indices.
func accumulate(out, c []float64, rows [][]float64, nz []int32) {
	if useAVX {
		accumulateAVX(out, c, rows, nz)
	} else {
		accumulateGo(out, c, rows, nz)
	}
}

// nonzeroRows returns the indices of c's nonzero entries in ascending
// order, reusing nz, and checks that each of their rows holds w values,
// so the kernels index rows without bounds checks.
func nonzeroRows(nz []int32, c []float64, rows [][]float64, w int) []int32 {
	nz = nz[:0]
	for i, ci := range c {
		if ci != 0 {
			if len(rows[i]) < w {
				panic("vec: row shorter than the output")
			}
			nz = append(nz, int32(i))
		}
	}
	return nz
}

// accumulateGo is the portable kernel, register blocked: four rows at a
// time fold into four outputs held in registers, which cuts the loads
// and stores of out by four. Each out[j] still receives the same
// additions in the same order as the plain loop, and the explicit
// float64 conversions forbid fusing a product into its sum, so the
// result is bit-identical on every architecture.
func accumulateGo(out, c []float64, rows [][]float64, nz []int32) {
	w := len(out)
	p := 0
	for ; p+4 <= len(nz); p += 4 {
		i0, i1, i2, i3 := nz[p], nz[p+1], nz[p+2], nz[p+3]
		c0, c1, c2, c3 := c[i0], c[i1], c[i2], c[i3]
		r0, r1, r2, r3 := rows[i0][:w], rows[i1][:w], rows[i2][:w], rows[i3][:w]
		j := 0
		for ; j+4 <= w; j += 4 {
			o := out[j : j+4 : j+4]
			a := r0[j : j+4 : j+4]
			b := r1[j : j+4 : j+4]
			d := r2[j : j+4 : j+4]
			e := r3[j : j+4 : j+4]
			o0, o1, o2, o3 := o[0], o[1], o[2], o[3]
			o0 += float64(c0 * a[0])
			o1 += float64(c0 * a[1])
			o2 += float64(c0 * a[2])
			o3 += float64(c0 * a[3])
			o0 += float64(c1 * b[0])
			o1 += float64(c1 * b[1])
			o2 += float64(c1 * b[2])
			o3 += float64(c1 * b[3])
			o0 += float64(c2 * d[0])
			o1 += float64(c2 * d[1])
			o2 += float64(c2 * d[2])
			o3 += float64(c2 * d[3])
			o0 += float64(c3 * e[0])
			o1 += float64(c3 * e[1])
			o2 += float64(c3 * e[2])
			o3 += float64(c3 * e[3])
			o[0], o[1], o[2], o[3] = o0, o1, o2, o3
		}
		for ; j < w; j++ {
			o := out[j]
			o += float64(c0 * r0[j])
			o += float64(c1 * r1[j])
			o += float64(c2 * r2[j])
			o += float64(c3 * r3[j])
			out[j] = o
		}
	}
	for ; p < len(nz); p++ {
		ci, row := c[nz[p]], rows[nz[p]][:w]
		for j := range out {
			out[j] += float64(ci * row[j])
		}
	}
}
