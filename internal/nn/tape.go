package nn

import (
	"fmt"
	"math/rand"

	"apan/internal/tensor"
)

// Tensor is a node in the autograd graph: a value matrix plus an optional
// gradient of the final scalar loss with respect to it.
//
// The backward pass is encoded as data, not closures: op identifies the
// operation that produced this tensor (opNone for leaves) and the remaining
// fields hold its operands — see backward.go for the dispatch. A captured
// closure heap-allocates per op per forward pass, which is what kept pooled
// training tapes at ~200 allocs/step; plain field stores on arena-reused
// nodes allocate nothing.
type Tensor struct {
	W        *tensor.Matrix // value
	G        *tensor.Matrix // gradient, allocated lazily
	needGrad bool

	op     opKind
	a      *Tensor        // first operand
	b      *Tensor        // second operand
	c      *Tensor        // third operand
	sc     float32        // scalar operand (Scale factor, affine gain, MHA scale)
	i0, i1 int            // int operands (ConcatCols split, MHA heads/slots)
	idx    []int32        // int32 operand (Gather indices, SegmentMean ids, OverlayRows winners)
	f0     []float32      // float operand (Dropout mask, BCE targets, MHA weights, LayerNorm invStd)
	f1     []float32      // backward scratch drawn at forward time (MHA dα, LayerNorm dx̂)
	aux    *tensor.Matrix // matrix operand (LayerNorm x̂ cache)
	cnts   []int          // MHA per-query valid-slot counts
	sp     *SparseMatrix  // SpMM operand
}

// Value returns the underlying value matrix.
func (t *Tensor) Value() *tensor.Matrix { return t.W }

// Grad returns the gradient matrix, allocating it zeroed on first use.
func (t *Tensor) Grad() *tensor.Matrix {
	if t.G == nil {
		t.G = tensor.New(t.W.Rows, t.W.Cols)
	}
	return t.G
}

// ZeroGrad clears the accumulated gradient, if any.
func (t *Tensor) ZeroGrad() {
	if t.G != nil {
		t.G.Zero()
	}
}

// Param creates a trainable rows×cols parameter tensor. Parameters live
// outside any tape and persist across training steps.
func Param(rows, cols int) *Tensor {
	return &Tensor{W: tensor.New(rows, cols), G: tensor.New(rows, cols), needGrad: true}
}

// ParamShell creates a rows×cols parameter tensor with shape but no value
// or gradient storage. It exists for modules that are materialized only to
// be bound to a published ParamSet (BindParams replaces W wholesale and the
// read-only binding never touches G): skipping the two eager matrices makes
// a parameter publish cost O(changed tensors) instead of O(model size). A
// shell must be bound before any forward pass.
func ParamShell(rows, cols int) *Tensor {
	return &Tensor{W: &tensor.Matrix{Rows: rows, Cols: cols}, needGrad: true}
}

// Tape records operations so Backward can replay them in reverse. A plain
// tape (NewTape/NewTrainingTape) is cheap to build fresh per forward pass.
// A pooled tape (NewInferenceTape) is the opposite: it is built once, holds
// on to every Tensor node and op-output matrix it ever handed out, and
// Reset recycles them wholesale — after warm-up a forward pass on a pooled
// tape performs zero heap allocation.
type Tape struct {
	nodes    []*Tensor
	training bool
	rng      *rand.Rand

	// nograd marks an inference-only tape: op outputs never need
	// gradients, so the ops skip recording their backward operands and
	// Backward panics.
	nograd bool

	// pool, when non-nil, supplies op-output matrices and scratch buffers;
	// everything drawn is tracked in owned and returned on Reset. The tape
	// owns its pool exclusively (pools are not goroutine-safe).
	pool  *tensor.Pool
	owned []*tensor.Matrix

	// arena recycles the Tensor nodes themselves across Reset.
	arena []*Tensor
	used  int

	// attArena recycles the Attention records MaskedMHA returns.
	attArena []*Attention
	attUsed  int

	// i32buf is a bump allocator for int-typed op scratch (OverlayRows
	// winner maps); like the float scratch it lives until Reset and is
	// reused across passes.
	i32buf  []int32
	i32used int

	// tmT is a reusable matrix header over tape scratch for the transposed
	// operand the assembly-GEMM backward path materializes (see stepBack).
	tmT tensor.Matrix
}

// NewTape returns an inference-mode tape (dropout disabled) that still
// records backward ops, so Backward works when any input needs
// gradients. Build a fresh one per forward pass.
func NewTape() *Tape { return &Tape{} }

// NewTrainingTape returns a tape with dropout enabled, drawing masks from rng.
func NewTrainingTape(rng *rand.Rand) *Tape { return &Tape{training: true, rng: rng} }

// NewReusableTrainingTape returns a training-mode tape (dropout from rng,
// gradients recorded) whose op outputs and gradient matrices draw from pool
// and are recycled wholesale by Reset — the per-step tape of the online
// trainer, which runs one mini-batch forward/backward every few applied
// batches for the lifetime of the process. Together with the opcode-encoded
// backward pass (backward.go) this makes a warm train step allocation-free.
// The tape takes exclusive ownership of pool.
func NewReusableTrainingTape(pool *tensor.Pool, rng *rand.Rand) *Tape {
	return &Tape{training: true, rng: rng, pool: pool}
}

// NewInferenceTape returns a reusable zero-allocation tape for serving:
// gradients are disabled outright (Backward panics), op outputs draw their
// storage from pool, and Reset recycles every node and matrix for the next
// pass. The tape takes exclusive ownership of pool.
func NewInferenceTape(pool *tensor.Pool) *Tape {
	return &Tape{nograd: true, pool: pool}
}

// Reset recycles the tape for the next forward pass: every pooled matrix
// returns to the pool and the Tensor/Attention nodes are reused in place.
// Values produced by the previous pass become invalid. Only meaningful on
// pooled tapes; on a plain tape it just truncates the op record.
func (tp *Tape) Reset() {
	if tp.pool != nil {
		for i, m := range tp.owned {
			tp.pool.Put(m)
			tp.owned[i] = nil
		}
		tp.owned = tp.owned[:0]
	}
	tp.nodes = tp.nodes[:0]
	tp.used = 0
	tp.attUsed = 0
	tp.i32used = 0
}

// alloc hands out a zeroed Tensor node, reusing the arena on pooled tapes.
func (tp *Tape) alloc() *Tensor {
	if tp.used < len(tp.arena) {
		t := tp.arena[tp.used]
		tp.used++
		*t = Tensor{}
		return t
	}
	t := &Tensor{}
	tp.arena = append(tp.arena, t)
	tp.used++
	return t
}

// newMatrix allocates zeroed op-output storage, from the pool when present.
func (tp *Tape) newMatrix(rows, cols int) *tensor.Matrix {
	if tp.pool == nil {
		return tensor.New(rows, cols)
	}
	m := tp.pool.Get(rows, cols)
	tp.owned = append(tp.owned, m)
	return m
}

// newMatrixRaw is newMatrix without the zeroing, for ops that overwrite
// every element of their output (reused pool storage carries stale values).
func (tp *Tape) newMatrixRaw(rows, cols int) *tensor.Matrix {
	if tp.pool == nil {
		return tensor.New(rows, cols)
	}
	m := tp.pool.GetRaw(rows, cols)
	tp.owned = append(tp.owned, m)
	return m
}

// scratch allocates a zeroed float32 buffer with tape lifetime (returned to
// the pool on Reset) for op-internal caches like attention weights.
func (tp *Tape) scratch(n int) []float32 {
	return tp.newMatrix(1, n).Data
}

// scratchI32 hands out an int32 buffer with tape lifetime from a bump arena
// reused across Reset. Contents are stale; callers must overwrite. Growth
// mid-pass abandons the old backing (still referenced by earlier slices,
// which stay valid until Reset) and converges to zero allocations once the
// arena has seen a full pass.
func (tp *Tape) scratchI32(n int) []int32 {
	if tp.i32used+n > len(tp.i32buf) {
		tp.i32buf = make([]int32, max(2*len(tp.i32buf), tp.i32used+n, 64))
		tp.i32used = 0
	}
	s := tp.i32buf[tp.i32used : tp.i32used+n : tp.i32used+n]
	tp.i32used += n
	return s
}

// Input wraps a constant matrix as a leaf tensor with no gradient.
func (tp *Tape) Input(m *tensor.Matrix) *Tensor {
	t := tp.alloc()
	t.W = m
	return t
}

// record registers an op output on the tape. Inference tapes skip the
// bookkeeping: they never replay.
func (tp *Tape) record(out *Tensor) *Tensor {
	if !tp.nograd {
		tp.nodes = append(tp.nodes, out)
	}
	return out
}

// newResult builds the output tensor for an op with the given inputs. The
// value matrix is zeroed — required by ops that write sparsely (ReLU,
// MaskedMHA, SegmentMean, Dropout).
func (tp *Tape) newResult(rows, cols int, inputs ...*Tensor) *Tensor {
	out := tp.alloc()
	out.W = tp.newMatrix(rows, cols)
	return tp.finishResult(out, inputs)
}

// newResultRaw is newResult with uninitialized value storage, for ops that
// assign every output element.
func (tp *Tape) newResultRaw(rows, cols int, inputs ...*Tensor) *Tensor {
	out := tp.alloc()
	out.W = tp.newMatrixRaw(rows, cols)
	return tp.finishResult(out, inputs)
}

func (tp *Tape) finishResult(out *Tensor, inputs []*Tensor) *Tensor {
	if tp.nograd {
		return out
	}
	for _, in := range inputs {
		if in.needGrad {
			out.needGrad = true
			break
		}
	}
	// On a pooled training tape, draw the gradient from the pool up front so
	// it is recycled on Reset instead of lazily heap-allocated every pass.
	if out.needGrad && tp.pool != nil {
		out.G = tp.newMatrix(out.W.Rows, out.W.Cols)
	}
	return out
}

// newAttention hands out an Attention record, reused across Reset.
func (tp *Tape) newAttention() *Attention {
	if tp.attUsed < len(tp.attArena) {
		a := tp.attArena[tp.attUsed]
		tp.attUsed++
		*a = Attention{}
		return a
	}
	a := &Attention{}
	tp.attArena = append(tp.attArena, a)
	tp.attUsed++
	return a
}

// Backward seeds d(loss)/d(loss)=1 and propagates gradients to every tensor
// reachable from loss that needs them. loss must be a 1×1 tensor produced on
// this tape.
func (tp *Tape) Backward(loss *Tensor) {
	if tp.nograd {
		panic("nn: Backward on an inference tape (NewInferenceTape disables gradients)")
	}
	if loss.W.Rows != 1 || loss.W.Cols != 1 {
		panic(fmt.Sprintf("nn: Backward needs a scalar loss, got %dx%d", loss.W.Rows, loss.W.Cols))
	}
	loss.Grad().Data[0] = 1
	// The tape is already in topological order (ops are recorded after their
	// inputs exist), so a reverse sweep visits consumers before producers.
	for i := len(tp.nodes) - 1; i >= 0; i-- {
		n := tp.nodes[i]
		if n.op != opNone && n.needGrad && n.G != nil {
			tp.stepBack(n)
		}
	}
}
