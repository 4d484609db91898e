package tensor

import "math"

// Exp32 is exp for float32 values.
func Exp32(x float32) float32 { return float32(math.Exp(float64(x))) }

// Log32 is the natural logarithm for float32 values.
func Log32(x float32) float32 { return float32(math.Log(float64(x))) }

// Sqrt32 is the square root for float32 values.
func Sqrt32(x float32) float32 { return float32(math.Sqrt(float64(x))) }

// Tanh32 is tanh for float32 values.
func Tanh32(x float32) float32 { return float32(math.Tanh(float64(x))) }

// Cos32 is cosine for float32 values.
func Cos32(x float32) float32 { return float32(math.Cos(float64(x))) }

// Sin32 is sine for float32 values.
func Sin32(x float32) float32 { return float32(math.Sin(float64(x))) }

// Sigmoid32 is the logistic function for float32 values, computed in a
// numerically stable branch per sign.
func Sigmoid32(x float32) float32 {
	if x >= 0 {
		z := Exp32(-x)
		return 1 / (1 + z)
	}
	z := Exp32(x)
	return z / (1 + z)
}
