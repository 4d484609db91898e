//go:build amd64 && !apan_noasm

package tensor

// UseGoGemm routes MatMulAcc to the Go reference kernel until the returned
// function is called — the seam the model-level parity test compares the
// assembly against. It exists only in this package's test binary.
func UseGoGemm() (restore func()) {
	was := hasAvx2
	hasAvx2 = false
	return func() { hasAvx2 = was }
}
