//go:build !amd64

package vec

// useAVX is false off amd64: the assembly kernel exists only there.
const useAVX = false

func accumulateAVX(out, c []float64, rows [][]float64, nz []int32) {
	panic("vec: no AVX kernel on this architecture")
}
