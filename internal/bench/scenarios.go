package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"apan/internal/scenario"
)

// ScenarioReport is the machine-readable output of the scenario harness
// (apan-bench -exp scenarios -json): one row per bundled scenario with its
// stream accounting, labeled metrics, latency stats and invariant verdicts.
type ScenarioReport struct {
	GeneratedUnix     int64              `json:"generated_unix"`
	GoVersion         string             `json:"go"`
	GOMAXPROCS        int                `json:"gomaxprocs"`
	Seed              int64              `json:"seed"`
	EventsPerScenario int                `json:"events_per_scenario"`
	BatchSize         int                `json:"batch_size"`
	Results           []*scenario.Result `json:"scenarios"`
}

// Violations counts invariant breaches across all scenarios.
func (r *ScenarioReport) Violations() int {
	var n int
	for _, res := range r.Results {
		n += len(res.Violations)
	}
	return n
}

// WriteJSON persists the report (repo convention: BENCH_apan.json for the
// default experiment record; CI writes a separate artifact path).
func (r *ScenarioReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// RunScenarios executes the bundled scenario suite at a size scaled by
// Options.Scale and renders the per-scenario table. The returned error is
// non-nil when any invariant was violated, so CI jobs running the table
// fail loudly; the report is still returned (and printable/persistable) in
// that case.
func RunScenarios(o Options) (*ScenarioReport, error) {
	o.normalize()
	events := int(60000 * o.Scale)
	if events < 600 {
		events = 600
	}
	ro := scenario.RunOptions{Seed: o.Seed, Events: events, BatchSize: 50}

	rep := &ScenarioReport{
		GeneratedUnix:     time.Now().Unix(),
		GoVersion:         runtime.Version(),
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		Seed:              o.Seed,
		EventsPerScenario: events,
		BatchSize:         ro.BatchSize,
	}

	fmt.Fprintf(o.Out, "%-22s %7s %7s %7s %6s %6s %10s %10s %5s %9s %5s\n",
		"scenario", "events", "applied", "dropped", "AP", "AUC", "sync_mean", "sync_p99", "maxq", "drift", "inv")
	metric := func(p *float64) string {
		if p == nil {
			return "-"
		}
		return fmt.Sprintf("%.3f", *p)
	}
	for _, sc := range scenario.Bundled() {
		res, err := scenario.Run(sc, ro)
		if err != nil {
			return rep, fmt.Errorf("bench: scenario %s: %w", sc.Name, err)
		}
		rep.Results = append(rep.Results, res)
		fmt.Fprintf(o.Out, "%-22s %7d %7d %7d %6s %6s %9dµs %9dµs %5d %9.2e %5s\n",
			res.Scenario, res.Events, res.Applied, res.Dropped,
			metric(res.AP), metric(res.AUC),
			res.SyncMeanU, res.SyncP99U, res.MaxDepth, res.ScoreDrift,
			res.InvariantSummary())
		if res.OnlineAP != nil && res.FrozenAP != nil {
			fmt.Fprintf(o.Out, "  continual learning: online AP %.3f vs frozen %.3f post-shift, %d versions published\n",
				*res.OnlineAP, *res.FrozenAP, res.VersionsPublished)
		}
		for _, v := range res.Violations {
			fmt.Fprintf(o.Out, "  VIOLATION %s\n", v)
		}
	}
	if n := rep.Violations(); n > 0 {
		return rep, fmt.Errorf("bench: %d invariant violation(s) across scenarios (see table)", n)
	}
	return rep, nil
}
