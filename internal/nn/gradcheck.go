package nn

import "fmt"

// GradCheck compares the analytic gradient of loss() with central finite
// differences for every element of every parameter in params. loss must
// rebuild the forward pass from scratch on each call (it is invoked many
// times with perturbed parameters) and return the scalar loss value.
//
// It returns the worst relative error observed; errors below ~1e-2 are
// expected for float32 arithmetic with eps around 1e-2.
func GradCheck(params []*Tensor, loss func() float64, eps float32) (float64, error) {
	// Analytic pass: run once, backprop handled by the caller's loss closure?
	// No — the caller provides only the forward; we need the analytic grads
	// already accumulated in params before calling GradCheck.
	var worst float64
	for pi, p := range params {
		if p.G == nil {
			return 0, fmt.Errorf("nn: GradCheck param %d has no gradient; run Backward first", pi)
		}
		for j := range p.W.Data {
			orig := p.W.Data[j]
			p.W.Data[j] = orig + eps
			up := loss()
			p.W.Data[j] = orig - eps
			down := loss()
			p.W.Data[j] = orig
			numeric := (up - down) / (2 * float64(eps))
			analytic := float64(p.G.Data[j])
			diff := absf(numeric - analytic)
			if diff < 2e-4 {
				// Below the float32 central-difference noise floor.
				continue
			}
			denom := absf(numeric) + absf(analytic)
			rel := diff / denom
			if rel > worst {
				worst = rel
			}
		}
	}
	return worst, nil
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
