// Command benchmark is the benchmark of this repository: five serving
// workloads measured end to end with tracing off, and again with tracing on
// for the per-layer numbers. BENCHMARK.json at the root of the repository
// names its metrics and their regression bounds; README.md in this
// directory explains the workloads and how to read the results.
//
// One workload, one run — the form the benchmark driver uses, printing one
// JSON object as the last line of standard output:
//
//	bash benchmark/run.sh --workload inproc_cycle --seed 1 --seconds 10 --trace 0
//
// The whole suite, end to end then traced, written to a results file:
//
//	bash benchmark/run.sh -seed 1 -repeat 3 -out results.json
//
// Two results files compared under the bounds of BENCHMARK.json:
//
//	bash benchmark/run.sh -compare before.json after.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"

	"apan/internal/tensor"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload once and print the driver's JSON line; empty runs the whole suite")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 0, "length of the measured window (0: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "with -workload: 0 measures end to end with tracing off, 1 reports the per-layer metrics")
	out := fs.String("out", "", "suite: write the results to this file")
	traceOut := fs.String("trace-out", "", "traced runs: write the recorded spans here as JSON lines (suite: one file per workload, name appended)")
	repeat := fs.Int("repeat", 1, "suite: run the end-to-end pass this many times and report median and quartiles")
	compare := fs.Bool("compare", false, "compare two results files (arguments: before.json after.json) under the bounds of BENCHMARK.json")
	smoke := fs.Bool("smoke", false, "tiny sizes that only exercise the code paths")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	spec, err := loadSpec()
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two results files"))
		}
		worse, err := compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			return fail(err)
		}
		if worse > 0 {
			return 1
		}
		return 0
	}
	o := options{seed: *seed, seconds: *seconds, sz: fullSizes, traceOut: *traceOut}
	if *smoke {
		o.sz = smokeSizes
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if *workload == "" {
		if err := runSuite(spec, o, *repeat, *smoke, *out, stdout); err != nil {
			return fail(err)
		}
		return 0
	}

	if !slices.Contains(workloadNames, *workload) {
		return fail(fmt.Errorf("unknown workload %q; the workloads are %v", *workload, workloadNames))
	}
	o.workload = *workload
	var res *outcome
	list := spec.EndToEnd
	if *trace == 1 {
		list = spec.PerLayer
		res, err = runTraced(o)
	} else {
		res, err = runUntraced(o)
	}
	if err != nil {
		return fail(err)
	}
	line, err := driverLine(res, list)
	if err != nil {
		return fail(err)
	}
	printOutcome(stdout, o.workload, res, list)
	fmt.Fprintln(stdout, line)
	if !res.Correct {
		return 1
	}
	return 0
}

// driverLine renders a run as the one JSON object the benchmark driver
// reads: exactly the metrics BENCHMARK.json lists, each with its unit.
func driverLine(res *outcome, list []metricSpec) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, m := range list {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return "", fmt.Errorf("BENCHMARK.json lists %s, which this run did not measure", m.Name)
		}
		line.Metrics[m.Name] = value{v, m.Unit}
	}
	if len(res.Metrics) != len(list) {
		return "", fmt.Errorf("the run measured %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(list))
	}
	data, err := json.Marshal(line)
	return string(data), err
}

func printOutcome(w io.Writer, workload string, res *outcome, list []metricSpec) {
	fmt.Fprintf(w, "%s: %d operations attempted, %d failed, %d latency samples\n", workload, res.Attempted, res.Failed, res.Samples)
	for _, m := range list {
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", m.Name, res.Metrics[m.Name], m.Unit)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  INCORRECT: %s\n", p)
	}
}

// machine records where a results file was measured; numbers from two
// different machines are not comparable.
type machine struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
	KernelTier string `json:"kernel_tier"`
	AsmGemm    bool   `json:"asm_gemm"`
	Commit     string `json:"git_commit"`
}

func thisMachine() machine {
	commit := os.Getenv("APAN_BENCH_COMMIT") // set by run.sh
	if commit == "" {
		commit = "unknown"
	}
	return machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		KernelTier: tensor.Tier(),
		AsmGemm:    tensor.HasAsmGemm(),
		Commit:     commit,
	}
}

// series is one end-to-end metric of one workload over the suite's repeats.
type series struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func newSeries(unit string, values []float64) series {
	q1, q3 := quartiles(values)
	return series{Unit: unit, Median: median(values), Q1: q1, Q3: q3, Values: values}
}

// spread is the distance between the quartiles as a share of the median.
func (s series) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

type workloadResult struct {
	Sizes     map[string]float64 `json:"sizes"`
	Clients   int                `json:"clients"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
	EndToEnd  map[string]series  `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
}

type results struct {
	Machine   machine                    `json:"machine"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Repeat    int                        `json:"repeat"`
	Smoke     bool                       `json:"smoke"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// sizeRecord is the per-workload sizes a results file carries.
func sizeRecord(o options) map[string]float64 {
	sz := o.sz
	rec := map[string]float64{
		"window_s":        o.seconds,
		"dataset_scale":   sz.scale,
		"warmup_events":   float64(sz.warm),
		"batch_events":    float64(sz.batch),
		"preroll_ops":     float64(sz.preroll[o.workload]),
		"setup_reps":      float64(sz.setupReps),
		"on_time_limit_s": onTimeLimit[o.workload].Seconds(),
	}
	switch o.workload {
	case wlSingleOpen:
		rec["rate_per_s"] = sz.openRate
		rec["queue_cap"] = float64(sz.queueCap)
	case wlBatchClosed, wlCycle:
		rec["queue_cap"] = float64(sz.queueCap)
	case wlSlowDB:
		rec["queue_cap"] = float64(sz.slowQueueCap)
		rec["db_latency_s"] = sz.dbLatency.Seconds()
	case wlRecover:
		rec["logged_batches"] = float64(sz.recoverLogged)
	}
	return rec
}

// runSuite runs every workload end to end `repeat` times, then every
// workload once traced, prints each metric by name and writes the results.
func runSuite(spec *benchSpec, o options, repeat int, smoke bool, outPath string, stdout io.Writer) error {
	res := results{Machine: thisMachine(), Seed: o.seed, Seconds: o.seconds, Repeat: repeat, Smoke: smoke,
		Workloads: map[string]*workloadResult{}}
	incorrect := 0
	traceOut := o.traceOut
	for _, wl := range workloadNames {
		o.workload = wl
		wr := &workloadResult{Sizes: sizeRecord(o), Clients: o.sz.clientsOf(wl), Correct: true, EndToEnd: map[string]series{}}
		res.Workloads[wl] = wr
		values := map[string][]float64{}
		note := func(r *outcome) {
			wr.Attempted += r.Attempted
			wr.Failed += r.Failed
			wr.Correct = wr.Correct && r.Correct
			wr.Problems = append(wr.Problems, r.Problems...)
		}
		for rep := 0; rep < max(repeat, 1); rep++ {
			r, err := runUntraced(o)
			if err != nil {
				return fmt.Errorf("%s: %w", wl, err)
			}
			note(r)
			printOutcome(stdout, wl, r, spec.EndToEnd)
			for k, v := range r.Metrics {
				values[k] = append(values[k], v)
			}
		}
		for _, m := range spec.EndToEnd {
			wr.EndToEnd[m.Name] = newSeries(m.Unit, values[m.Name])
		}
		if traceOut != "" {
			o.traceOut = traceOut + "." + wl
		}
		r, err := runTraced(o)
		if err != nil {
			return fmt.Errorf("%s (traced): %w", wl, err)
		}
		note(r)
		printOutcome(stdout, wl+" (traced)", r, spec.PerLayer)
		wr.PerLayer = r.Metrics
		if !wr.Correct {
			incorrect++
		}
	}
	if outPath != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if incorrect > 0 {
		return fmt.Errorf("%d workloads failed their output checks", incorrect)
	}
	return nil
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// results files and returns how many rows are worse beyond their bound.
func compareFiles(spec *benchSpec, beforePath, afterPath string, w io.Writer) (worse int, err error) {
	load := func(path string) (*results, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r results
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &r, nil
	}
	before, err := load(beforePath)
	if err != nil {
		return 0, err
	}
	after, err := load(afterPath)
	if err != nil {
		return 0, err
	}
	if before.Machine.NumCPU != after.Machine.NumCPU || before.Seconds != after.Seconds || before.Smoke != after.Smoke {
		fmt.Fprintf(w, "warning: the two files differ in machine or run length (%d CPUs, %gs vs %d CPUs, %gs)\n",
			before.Machine.NumCPU, before.Seconds, after.Machine.NumCPU, after.Seconds)
	}
	fmt.Fprintf(w, "%-18s %-14s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "before", "after", "change", "bound", "spread", "verdict")
	for _, name := range workloadNames {
		b, a := before.Workloads[name], after.Workloads[name]
		if b == nil || a == nil {
			return worse, fmt.Errorf("workload %s is missing from one of the files", name)
		}
		for _, m := range spec.EndToEnd {
			sb, okb := b.EndToEnd[m.Name]
			sa, oka := a.EndToEnd[m.Name]
			if !okb || !oka || sb.Median == 0 {
				return worse, fmt.Errorf("%s/%s: missing from one of the files", name, m.Name)
			}
			change := (sa.Median - sb.Median) / sb.Median
			harm := change // share by which the metric got worse
			if m.Better == "higher" {
				harm = -change
			}
			spread := max(sb.spread(), sa.spread())
			verdict := "unchanged"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
			case harm > m.Bound:
				verdict = "WORSE"
				worse++
			case harm < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-18s %-14s %12.4f %12.4f %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				name, m.Name, sb.Median, sa.Median, 100*change, 100*m.Bound, 100*spread, verdict)
		}
		if !a.Correct {
			fmt.Fprintf(w, "%-18s output checks failed in %s: WORSE\n", name, afterPath)
			worse++
		}
	}
	return worse, nil
}
