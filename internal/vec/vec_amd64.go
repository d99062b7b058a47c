package vec

// useAVX selects the assembly kernel, once, from what the CPU reports.
var useAVX = hasAVX()

// hasAVX reports whether the CPU has AVX and the OS saves the YMM
// registers across context switches (CPUID.1:ECX.OSXSAVE and .AVX set,
// and XCR0 enabling both the XMM and the YMM state).
func hasAVX() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 1 {
		return false
	}
	_, _, ecx, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}

// accumulateAVX is accumulateGo in AVX assembly: sixteen outputs at a
// time are loaded into four YMM registers, one output per lane, while
// the rows nz names stream past in nz order, and are stored back; then
// four at a time, then one.
// Every lane multiplies (VMULPD) and then adds (VADDPD), each rounded on
// its own; there is no fused multiply-add.
//
//go:noescape
func accumulateAVX(out, c []float64, rows [][]float64, nz []int32)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
