//go:build !apan_noasm

package tensor

// The AVX2 kernels (asm_amd64.s) are compiled into every amd64 build and
// gated once by CPUID: machines without AVX2 run the Go kernels, which
// compute the same bits. Build with -tags apan_noasm to leave the assembly
// out entirely.

// cpuHasAvx2 reports whether the CPU and OS support AVX2 (asm_amd64.s).
func cpuHasAvx2() bool

// hasAvx2 is read-only after init outside this package's tests, which clear
// it to run the Go reference through the same entry points.
var hasAvx2 = cpuHasAvx2()

//go:noescape
func gemmAccAsm(dst, a, b []float32, m, k, n int)

// matMulAcc is MatMulAcc's kernel on amd64: the AVX2 body where the CPU has
// it, bit-identical to matMulAccKernel (see the contract there).
func matMulAcc(dst, a, b *Matrix) {
	if !hasAvx2 {
		matMulAccKernel(dst, a, b)
		return
	}
	m, k, n := a.Rows, a.Cols, b.Cols
	// The reslices bound what the assembly may touch by each slice's capacity.
	gemmAccAsm(dst.Data[:m*n], a.Data[:m*k], b.Data[:k*n], m, k, n)
}

// HasAsmGemm reports whether MatMulAcc runs the AVX2 assembly body in this
// process (amd64 with AVX2, not built with apan_noasm).
func HasAsmGemm() bool { return hasAvx2 }

//go:noescape
func axpyAsm(y, x []float32, s float32)

// axpy is Axpy's kernel on amd64, bit-identical to axpyKernel.
func axpy(y, x []float32, s float32) {
	if !hasAvx2 {
		axpyKernel(y, x, s)
		return
	}
	axpyAsm(y, x, s)
}
