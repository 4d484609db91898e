package nn

import (
	"math"

	"apan/internal/tensor"
)

// Adam implements the Adam optimizer (Kingma & Ba) over a fixed parameter
// set, matching the paper's configuration (lr 1e-4, default betas).
type Adam struct {
	LR      float32
	Beta1   float32
	Beta2   float32
	Eps     float32
	step    int
	params  []*Tensor
	moment1 []*tensor.Matrix
	moment2 []*tensor.Matrix
}

// NewAdam builds an Adam optimizer for params with learning rate lr.
func NewAdam(params []*Tensor, lr float32) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params}
	for _, p := range params {
		a.moment1 = append(a.moment1, tensor.New(p.W.Rows, p.W.Cols))
		a.moment2 = append(a.moment2, tensor.New(p.W.Rows, p.W.Cols))
	}
	return a
}

// Step applies one Adam update from the accumulated gradients.
func (a *Adam) Step() {
	a.step++
	bc1 := 1 - float32(math.Pow(float64(a.Beta1), float64(a.step)))
	bc2 := 1 - float32(math.Pow(float64(a.Beta2), float64(a.step)))
	for i, p := range a.params {
		if p.G == nil {
			continue
		}
		m, v := a.moment1[i], a.moment2[i]
		for j, g := range p.G.Data {
			m.Data[j] = a.Beta1*m.Data[j] + (1-a.Beta1)*g
			v.Data[j] = a.Beta2*v.Data[j] + (1-a.Beta2)*g*g
			mh := m.Data[j] / bc1
			vh := v.Data[j] / bc2
			p.W.Data[j] -= a.LR * mh / (tensor.Sqrt32(vh) + a.Eps)
		}
	}
}

// ZeroGrad clears the gradients of every managed parameter.
func (a *Adam) ZeroGrad() {
	for _, p := range a.params {
		p.ZeroGrad()
	}
}

// ClipGradNorm rescales all gradients so their global L2 norm is at most max.
// It returns the pre-clip norm. Used by the recurrent baselines.
func ClipGradNorm(params []*Tensor, max float64) float64 {
	var total float64
	for _, p := range params {
		if p.G == nil {
			continue
		}
		n := p.G.Norm2()
		total += n * n
	}
	norm := math.Sqrt(total)
	if norm > max && norm > 0 {
		scale := float32(max / norm)
		for _, p := range params {
			if p.G != nil {
				p.G.Scale(scale)
			}
		}
	}
	return norm
}
