//go:build !amd64 || apan_noasm

package tensor

// matMulAcc is MatMulAcc's kernel where there is no assembly (non-amd64, or
// amd64 built with -tags apan_noasm): the Go reference.
func matMulAcc(dst, a, b *Matrix) { matMulAccKernel(dst, a, b) }

// axpy is Axpy's kernel where there is no assembly.
func axpy(y, x []float32, s float32) { axpyKernel(y, x, s) }

// HasAsmGemm reports whether MatMulAcc runs an assembly body: never here.
func HasAsmGemm() bool { return false }
