package bench

import (
	"fmt"
	"io"
	"time"

	"apan/internal/baselines"
	"apan/internal/core"
	"apan/internal/dataset"
	"apan/internal/gdb"
	"apan/internal/tgraph"
)

// Options scales the experiments. Zero values select defaults tuned so the
// Go benchmarks finish quickly; cmd/apan-bench raises them toward the
// paper's configuration.
type Options struct {
	Scale     float64 // dataset scale factor (1.0 = paper size); default 0.01
	Seed      int64   // base RNG seed
	Seeds     int     // seeds per cell (paper: 10); default 1
	Epochs    int     // max training epochs; default 3
	Patience  int     // early-stopping patience (paper: 5)
	BatchSize int     // events per batch (paper: 200)
	Fanout    int     // sampled neighbors / mailbox fan-out (paper: 10)
	Slots     int     // mailbox slots (paper: 10)
	Hidden    int     // MLP hidden width (paper: 80)
	// LR is the Adam learning rate for the dynamic models. The paper uses
	// 1e-4 on the full-size datasets; the scaled-down benchmark streams have
	// ~50× fewer steps per epoch, so the default here is 3e-4.
	LR float32
	// DBLatency, when non-zero, charges each graph-database query this much
	// simulated latency. It is added to the critical path of synchronous
	// models only (Figure 6's deployment scenario, §4.6).
	DBLatency time.Duration
	Out       io.Writer // table output; nil discards
}

func (o *Options) normalize() {
	if o.Scale == 0 {
		o.Scale = 0.01
	}
	if o.Seeds == 0 {
		o.Seeds = 1
	}
	if o.Epochs == 0 {
		o.Epochs = 3
	}
	if o.Patience == 0 {
		o.Patience = 5
	}
	if o.BatchSize == 0 {
		o.BatchSize = 200
	}
	if o.Fanout == 0 {
		o.Fanout = 10
	}
	if o.Slots == 0 {
		o.Slots = 10
	}
	if o.Hidden == 0 {
		o.Hidden = 80
	}
	if o.LR == 0 {
		o.LR = 3e-4
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
}

// MakeDataset builds one of the paper's three datasets at the configured
// scale.
func (o *Options) MakeDataset(name string) (*dataset.Dataset, error) {
	cfg := dataset.Config{Scale: o.Scale, Seed: o.Seed + 1000}
	switch name {
	case "wikipedia":
		return dataset.Wikipedia(cfg), nil
	case "reddit":
		return dataset.Reddit(cfg), nil
	case "alipay":
		// Alipay is ~18× Wikipedia; keep the relative size but cap the
		// absolute cost of benchmark runs.
		cfg.Scale = o.Scale / 4
		return dataset.Alipay(cfg), nil
	default:
		return nil, fmt.Errorf("bench: unknown dataset %q", name)
	}
}

// NewStreamModel instantiates a dynamic model by figure label, e.g.
// "APAN-2layers", "TGAT-1layer", "TGN-2layers", "JODIE", "DyRep".
func (o *Options) NewStreamModel(name string, d *dataset.Dataset, seed int64) (baselines.StreamModel, *gdb.DB, error) {
	db := gdb.New(tgraph.New(d.NumNodes))
	if o.DBLatency > 0 {
		db.Latency = gdb.Constant(o.DBLatency)
	}
	// The embedding dim equals the edge-feature dim (§4.4), which must be
	// divisible by the head count; Alipay's 101 features force single-head.
	heads := 2
	if d.EdgeDim%2 != 0 {
		heads = 1
	}
	switch name {
	case "APAN", "APAN-1layer", "APAN-2layers":
		hops := 2
		if name == "APAN-1layer" {
			hops = 1
		}
		m, err := core.NewWithDB(core.Config{
			NumNodes: d.NumNodes, EdgeDim: d.EdgeDim, Heads: heads,
			Slots: o.Slots, Neighbors: o.Fanout, Hops: hops,
			Hidden: o.Hidden, BatchSize: o.BatchSize, LR: o.LR, Seed: seed,
		}, db)
		return m, db, err
	case "TGAT", "TGAT-1layer", "TGAT-2layers":
		layers := 2
		if name == "TGAT-1layer" {
			layers = 1
		}
		return baselines.NewTGAT(baselines.TGATConfig{
			NumNodes: d.NumNodes, EdgeDim: d.EdgeDim, Layers: layers, Heads: heads,
			Fanout: o.Fanout, Hidden: o.Hidden, BatchSize: o.BatchSize, LR: o.LR, Seed: seed,
		}, db), db, nil
	case "TGN", "TGN-1layer", "TGN-2layers":
		layers := 1
		if name == "TGN-2layers" {
			layers = 2
		}
		return baselines.NewTGN(baselines.TGNConfig{
			NumNodes: d.NumNodes, EdgeDim: d.EdgeDim, Layers: layers, Heads: heads,
			Fanout: o.Fanout, Hidden: o.Hidden, BatchSize: o.BatchSize, LR: o.LR, Seed: seed,
		}, db), db, nil
	case "JODIE":
		return baselines.NewJODIE(baselines.JODIEConfig{
			NumNodes: d.NumNodes, EdgeDim: d.EdgeDim,
			Hidden: o.Hidden, BatchSize: o.BatchSize, LR: o.LR, Seed: seed,
		}), db, nil
	case "DyRep":
		return baselines.NewDyRep(baselines.DyRepConfig{
			NumNodes: d.NumNodes, EdgeDim: d.EdgeDim, Fanout: o.Fanout,
			Hidden: o.Hidden, BatchSize: o.BatchSize, LR: o.LR, Seed: seed,
		}, db), db, nil
	default:
		return nil, nil, fmt.Errorf("bench: unknown stream model %q", name)
	}
}

// NewStaticModel instantiates a static baseline by table label.
func (o *Options) NewStaticModel(name string, d *dataset.Dataset, seed int64) (baselines.StaticModel, error) {
	switch name {
	case "GAT":
		heads := 2
		if d.EdgeDim%2 != 0 {
			heads = 1
		}
		return baselines.NewStaticGNN(baselines.StaticGNNConfig{
			Kind: baselines.KindGAT, Fanout: o.Fanout, Hidden: o.Hidden, Heads: heads,
			BatchSize: o.BatchSize, Epochs: o.Epochs, Seed: seed,
		}, d.EdgeDim), nil
	case "SAGE":
		return baselines.NewStaticGNN(baselines.StaticGNNConfig{
			Kind: baselines.KindSAGE, Fanout: o.Fanout, Hidden: o.Hidden,
			BatchSize: o.BatchSize, Epochs: o.Epochs, Seed: seed,
		}, d.EdgeDim), nil
	case "GAE":
		return baselines.NewGAE(baselines.GAEConfig{Seed: seed}, d.EdgeDim), nil
	case "VGAE":
		return baselines.NewGAE(baselines.GAEConfig{Variational: true, Seed: seed}, d.EdgeDim), nil
	case "DeepWalk":
		return baselines.NewWalkEmbedding(baselines.WalkConfig{Kind: baselines.KindDeepWalk, Seed: seed}), nil
	case "Node2vec":
		return baselines.NewWalkEmbedding(baselines.WalkConfig{Kind: baselines.KindNode2Vec, Seed: seed}), nil
	case "CTDNE":
		return baselines.NewWalkEmbedding(baselines.WalkConfig{Kind: baselines.KindCTDNE, Seed: seed}), nil
	default:
		return nil, fmt.Errorf("bench: unknown static model %q", name)
	}
}
