package core

import "fmt"

// PositionalMode selects how mailbox slots are position-encoded before
// attention.
type PositionalMode int

const (
	// PositionalLearned adds a learned per-slot table (paper default, eq. 2).
	PositionalLearned PositionalMode = iota
	// PositionalTime replaces the table with the TGAT time-encoding kernel
	// over (t_now − t_mail), the §3.6 future-work variant.
	PositionalTime
	// PositionalNone disables positional encoding (ablation).
	PositionalNone
)

// MailReduce selects the reduction ρ applied when a node receives several
// mails in one batch.
type MailReduce int

const (
	// ReduceMean averages concurrent mails (paper default).
	ReduceMean MailReduce = iota
	// ReduceLatest keeps only the most recent mail (ablation).
	ReduceLatest
)

// Config holds APAN hyper-parameters. Zero values are replaced by the
// paper's defaults (§4.4) in Normalize.
type Config struct {
	NumNodes int // number of nodes in the graph (required)
	EdgeDim  int // edge feature dimension d; also the embedding dimension (required)

	Slots     int     // mailbox slots m (default 10)
	Neighbors int     // propagation fan-out (default 10)
	Hops      int     // propagation depth k / "layers" (default 2)
	Heads     int     // attention heads (default 2)
	Hidden    int     // MLP hidden width (default 80)
	Dropout   float32 // dropout rate (default 0.1)
	LR        float32 // Adam learning rate (default 1e-4)
	BatchSize int     // events per batch (default 200)

	// Shards is ignored: the node store has no lock stripes.
	//
	// Deprecated: kept only because the frozen benchmark reads it; the
	// next benchmark change should stop reading it and delete it.
	Shards int

	// EvictMaxNodes bounds the warm working set: at most this many nodes may
	// hold non-cold state/mailbox contents at once. When an applied batch
	// pushes the warm count past the budget, the least recently touched
	// nodes are reset to the cold-start condition (state zeroed, mailbox
	// emptied; the temporal graph keeps their adjacency) and re-admitted on
	// demand with a neighbor-mean warm start when the stream names them
	// again (see evict.go). 0 — the default — disables eviction entirely:
	// no tracking, bitwise-identical behavior to earlier builds.
	EvictMaxNodes int

	Positional PositionalMode
	Reduce     MailReduce
	// KeyValueMailbox switches ψ to the memory-network update (§3.6).
	KeyValueMailbox bool
	// MLPDecoder scores links with the §3.4 MLP([z_i ‖ z_j]) head instead of
	// the default calibrated inner product of the eq.-7 training objective.
	MLPDecoder bool

	Seed int64
}

// Normalize fills defaults and validates the configuration.
func (c *Config) Normalize() error {
	if c.NumNodes <= 0 {
		return fmt.Errorf("core: Config.NumNodes must be positive, got %d", c.NumNodes)
	}
	if c.EdgeDim <= 0 {
		return fmt.Errorf("core: Config.EdgeDim must be positive, got %d", c.EdgeDim)
	}
	if c.Slots == 0 {
		c.Slots = 10
	}
	if c.Neighbors == 0 {
		c.Neighbors = 10
	}
	if c.Hops == 0 {
		c.Hops = 2
	}
	if c.Heads == 0 {
		c.Heads = 2
	}
	if c.Hidden == 0 {
		c.Hidden = 80
	}
	if c.Dropout == 0 {
		c.Dropout = 0.1
	}
	if c.LR == 0 {
		c.LR = 1e-4
	}
	if c.BatchSize == 0 {
		c.BatchSize = 200
	}
	if c.EvictMaxNodes < 0 {
		return fmt.Errorf("core: Config.EvictMaxNodes must be ≥0, got %d", c.EvictMaxNodes)
	}
	if c.EdgeDim%c.Heads != 0 {
		return fmt.Errorf("core: EdgeDim %d must be divisible by Heads %d", c.EdgeDim, c.Heads)
	}
	if c.Slots < 1 || c.Neighbors < 1 || c.Hops < 1 {
		return fmt.Errorf("core: Slots/Neighbors/Hops must be ≥1")
	}
	return nil
}
