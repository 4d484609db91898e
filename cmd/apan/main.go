// Command apan trains and evaluates an APAN model on one of the synthetic
// paper datasets or a real JODIE-format CSV.
//
// Usage:
//
//	apan -dataset wikipedia -scale 0.05 -epochs 10
//	apan -csv /data/wikipedia.csv -epochs 10
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"apan"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("apan: ")

	var (
		datasetName = flag.String("dataset", "wikipedia", "synthetic dataset: wikipedia|reddit|alipay")
		csvPath     = flag.String("csv", "", "load a JODIE-format CSV instead of generating data")
		scale       = flag.Float64("scale", 0.05, "synthetic dataset scale (1.0 = paper size)")
		seed        = flag.Int64("seed", 1, "random seed")
		epochs      = flag.Int("epochs", 10, "max training epochs")
		patience    = flag.Int("patience", 5, "early stopping patience on validation AP")
		batch       = flag.Int("batch", 200, "events per batch")
		slots       = flag.Int("slots", 10, "mailbox slots")
		neighbors   = flag.Int("neighbors", 10, "propagation fan-out")
		hops        = flag.Int("hops", 2, "propagation depth k")
		hidden      = flag.Int("hidden", 80, "MLP hidden width")
		lr          = flag.Float64("lr", 1e-4, "Adam learning rate")
		savePath    = flag.String("save", "", "write a checkpoint (params + streaming state) here after training")
		loadPath    = flag.String("load", "", "restore a checkpoint and skip training")
	)
	flag.Parse()

	var ds *apan.Dataset
	var err error
	switch {
	case *csvPath != "":
		ds, err = apan.LoadCSV(*csvPath, "csv")
	case *datasetName == "wikipedia":
		ds = apan.Wikipedia(apan.DatasetConfig{Scale: *scale, Seed: *seed})
	case *datasetName == "reddit":
		ds = apan.Reddit(apan.DatasetConfig{Scale: *scale, Seed: *seed})
	case *datasetName == "alipay":
		ds = apan.Alipay(apan.DatasetConfig{Scale: *scale, Seed: *seed})
	default:
		err = fmt.Errorf("unknown dataset %q", *datasetName)
	}
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("dataset %s: %d nodes, %d events, %d-dim edge features",
		ds.Name, ds.NumNodes, len(ds.Events), ds.EdgeDim)

	heads := 2
	if ds.EdgeDim%2 != 0 {
		heads = 1
	}
	model, err := apan.New(apan.Config{
		NumNodes: ds.NumNodes, EdgeDim: ds.EdgeDim,
		Slots: *slots, Neighbors: *neighbors, Hops: *hops, Heads: heads,
		Hidden: *hidden, BatchSize: *batch, LR: float32(*lr), Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}

	split := ds.Split(0.70, 0.15)
	if *loadPath != "" {
		if err := model.LoadCheckpointFile(*loadPath); err != nil {
			log.Fatal(err)
		}
		log.Printf("restored checkpoint %s", *loadPath)
		ns := apan.NewNegSampler(ds.NumNodes)
		for i := range split.Train {
			ns.Observe(&split.Train[i])
		}
		test := model.EvalStream(split.Test, ns)
		fmt.Printf("restored model: test acc %.4f ap %.4f\n", test.Accuracy, test.AP)
		return
	}
	bestAP, bad := 0.0, 0
	for epoch := 1; epoch <= *epochs; epoch++ {
		model.ResetRuntime()
		ns := apan.NewNegSampler(ds.NumNodes)
		tr := model.TrainEpoch(split.Train, ns)
		val := model.EvalStream(split.Val, ns)
		log.Printf("epoch %2d  loss %.4f  train %.1fs  val acc %.4f ap %.4f",
			epoch, tr.Loss, tr.Elapsed.Seconds(), val.Accuracy, val.AP)
		if val.AP > bestAP {
			bestAP, bad = val.AP, 0
		} else if bad++; bad >= *patience {
			log.Printf("early stop (patience %d)", *patience)
			break
		}
	}

	// Clean final measurement: replay train to build state, then val+test.
	model.ResetRuntime()
	ns := apan.NewNegSampler(ds.NumNodes)
	model.EvalStream(split.Train, ns)
	val := model.EvalStream(split.Val, ns)
	if *savePath != "" {
		// Checkpoint at the deployment point: trained and warmed through
		// train+val, ready to serve the future.
		if _, err := model.Checkpoint(*savePath); err != nil {
			log.Fatal(err)
		}
		log.Printf("checkpoint written to %s", *savePath)
	}
	test := model.EvalStream(split.Test, ns)
	fmt.Printf("final: val acc %.4f ap %.4f | test acc %.4f ap %.4f | sync %s\n",
		val.Accuracy, val.AP, test.Accuracy, test.AP, test.SyncHist.String())
	if test.AP != test.AP { // NaN guard for degenerate inputs
		os.Exit(1)
	}
}
