// Command apan-bench reproduces the paper's tables and figures. Each
// experiment prints a table in the shape of the original; DESIGN.md §3 maps
// experiment ids to modules.
//
// Usage:
//
//	apan-bench -exp table2 -dataset wikipedia -scale 0.05 -seeds 3 -epochs 5
//	apan-bench -exp fig6 -db-latency 1ms
//	apan-bench -exp all -scale 0.02
//
// The perf experiment measures the serving hot paths (pooled vs baseline
// InferBatch, scratch-reusing vs fresh propagation) and, with -json, writes
// the machine-readable trajectory record BENCH_apan.json:
//
//	apan-bench -exp perf -json
//
// The scenarios experiment runs the deterministic simulation harness
// (internal/scenario): bundled workloads — flash crowd, Zipf hotspot, node
// churn, out-of-order streams, fraud rings — through the full stack under
// fault injection, printing a per-scenario table of AP/AUC, drop/latency
// stats and invariant verdicts; it exits non-zero on any invariant
// violation. See docs/testing.md.
//
//	apan-bench -exp scenarios -json
package main

import (
	"errors"
	"flag"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"apan/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("apan-bench: ")

	var (
		exp         = flag.String("exp", "all", "experiment: table1|table2|table3|fig6|fig7|fig8|fig9|ablation|drift|perf|scenarios|all")
		datasetName = flag.String("dataset", "", "dataset for table2/table3 (default: the paper's)")
		scale       = flag.Float64("scale", 0.02, "dataset scale factor (1.0 = paper size)")
		seeds       = flag.Int("seeds", 1, "seeds per cell (paper: 10)")
		seed        = flag.Int64("seed", 1, "base seed")
		epochs      = flag.Int("epochs", 5, "max training epochs")
		batch       = flag.Int("batch", 200, "events per batch")
		fanout      = flag.Int("fanout", 10, "sampled neighbors")
		slots       = flag.Int("slots", 10, "mailbox slots")
		dbLatency   = flag.Duration("db-latency", 0, "simulated graph-DB latency per query (fig6, §4.6)")
		models      = flag.String("models", "", "comma-separated model subset (default: the paper's)")
		jsonOut     = flag.Bool("json", false, "write the perf/scenarios experiment's results to -json-out")
		jsonPath    = flag.String("json-out", "BENCH_apan.json", "path of the machine-readable experiment record")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile  = flag.String("memprofile", "", "write an end-of-run heap profile to this file (go tool pprof)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("-cpuprofile: %v", err)
		}
		// log.Fatalf on an experiment error skips these; a truncated profile
		// of a failed run is not worth keeping anyway.
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Printf("-cpuprofile: %v", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Printf("-memprofile: %v", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live set, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("-memprofile: %v", err)
			}
		}()
	}

	o := bench.Options{
		Scale:     *scale,
		Seed:      *seed,
		Seeds:     *seeds,
		Epochs:    *epochs,
		BatchSize: *batch,
		Fanout:    *fanout,
		Slots:     *slots,
		DBLatency: *dbLatency,
		Out:       os.Stdout,
	}
	var subset []string
	if *models != "" {
		subset = strings.Split(*models, ",")
	}

	run := func(name string, f func() error) {
		log.Printf("== %s ==", name)
		start := time.Now()
		if err := f(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		log.Printf("== %s done in %v ==\n", name, time.Since(start).Round(time.Millisecond))
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }

	if want("table1") {
		run("table1", func() error { _, err := bench.RunTable1(o); return err })
	}
	if want("table2") {
		datasets := []string{"wikipedia", "reddit"}
		if *datasetName != "" {
			datasets = []string{*datasetName}
		}
		for _, d := range datasets {
			d := d
			run("table2/"+d, func() error { _, err := bench.RunTable2(o, d, subset); return err })
		}
	}
	if want("table3") {
		datasets := []string{"wikipedia", "reddit", "alipay"}
		if *datasetName != "" {
			datasets = []string{*datasetName}
		}
		for _, d := range datasets {
			d := d
			run("table3/"+d, func() error { _, err := bench.RunTable3(o, d, subset); return err })
		}
	}
	if want("fig6") {
		run("fig6", func() error { _, err := bench.RunFigure6(o, subset); return err })
	}
	if want("fig7") {
		run("fig7", func() error { _, err := bench.RunFigure7(o, subset); return err })
	}
	if want("fig8") {
		run("fig8", func() error { _, err := bench.RunFigure8(o, subset, nil); return err })
	}
	if want("fig9") {
		run("fig9", func() error { _, err := bench.RunFigure9(o, nil, nil); return err })
	}
	if *exp == "ablation" {
		run("ablation", func() error { _, err := bench.RunAblation(o); return err })
	}
	if *exp == "drift" {
		run("drift", func() error { _, err := bench.RunDriftAblation(o, nil); return err })
	}
	if want("perf") {
		run("perf", func() error {
			rep, err := bench.RunPerf(o)
			if err != nil {
				return err
			}
			if *jsonOut {
				if err := rep.WriteJSON(*jsonPath); err != nil {
					return err
				}
				log.Printf("wrote %s", *jsonPath)
			}
			return nil
		})
	}
	if *exp == "scenarios" {
		run("scenarios", func() error {
			rep, err := bench.RunScenarios(o)
			// Persist the table even when invariants were violated — the
			// JSON is the diagnosis artifact. A write failure must not mask
			// the violation verdict, so the errors are joined.
			if rep != nil && *jsonOut {
				if werr := rep.WriteJSON(*jsonPath); werr != nil {
					err = errors.Join(err, werr)
				} else {
					log.Printf("wrote %s", *jsonPath)
				}
			}
			return err
		})
	}
}
