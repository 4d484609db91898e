package main

import (
	"bytes"
	"crypto/sha256"
	"math"
	"regexp"
	"runtime"
	"slices"
	"testing"

	"apan/internal/dataset"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpec checks BENCHMARK.json against the limits of the benchmark
// contract and against the names the program emits.
func TestSpec(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	var names, workloads, layers []string
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range spec.PerLayer {
		names = append(names, m.Name)
		layers = append(layers, m.Name)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, m := range append(slices.Clone(spec.EndToEnd), spec.PerLayer...) {
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	if !slices.Equal(workloads, workloadNames) {
		t.Errorf("workloads %v, the program runs %v", workloads, workloadNames)
	}
	if !slices.Equal(layers, layerNames) {
		t.Errorf("per-layer metrics %v, the program emits %v", layers, layerNames)
	}
}

// TestSmoke runs every workload, end to end and traced, at sizes that only
// exercise the code paths, and checks that each run emits exactly the
// metrics BENCHMARK.json names, each finite, and passes its output checks.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumCPU(); n < smokeSizes.clients {
		t.Skipf("%d CPUs: the benchmark refuses to run %d clients", n, smokeSizes.clients)
	}
	for _, wl := range workloadNames {
		o := options{workload: wl, seed: 7, seconds: 0.2, sz: smokeSizes}
		for _, mode := range []struct {
			name string
			run  func(options) (*outcome, error)
			list []metricSpec
		}{{"end_to_end", runUntraced, spec.EndToEnd}, {"per_layer", runTraced, spec.PerLayer}} {
			res, err := mode.run(o)
			if err != nil {
				t.Fatalf("%s %s: %v", wl, mode.name, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s %s: attempted %d, failed %d, problems %v", wl, mode.name, res.Attempted, res.Failed, res.Problems)
			}
			// driverLine fails unless the run's metrics are exactly the list's.
			if _, err := driverLine(res, mode.list); err != nil {
				t.Errorf("%s %s: %v", wl, mode.name, err)
			}
			for name, v := range res.Metrics {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s %s: %s is %v", wl, mode.name, name, v)
				}
			}
			if mode.name == "end_to_end" {
				for name, v := range res.Metrics {
					// on_time_frac may reach 0 where the test itself is slowed
					// down, as under the race detector.
					if v < 0 || v == 0 && name != "on_time_frac" {
						t.Errorf("%s: end-to-end metric %s is %v, must never be 0", wl, name, v)
					}
				}
			}
		}
	}
}

// TestBodiesFollowSeed checks that the generated requests are a function of
// the seed alone.
func TestBodiesFollowSeed(t *testing.T) {
	digest := func(wl string, seed int64) [sha256.Size]byte {
		r := &rig{wl: wl, sz: smokeSizes}
		r.ds = dataset.Wikipedia(dataset.Config{Scale: r.sz.scale, Seed: seed})
		if err := r.planOps(1); err != nil {
			t.Fatal(err)
		}
		r.encodeBodies()
		return sha256.Sum256(bytes.Join(r.bodies, []byte{'\n'}))
	}
	for _, wl := range []string{wlSingleOpen, wlBatchClosed} {
		if digest(wl, 3) != digest(wl, 3) {
			t.Errorf("%s: the same seed generated different request bodies", wl)
		}
		if digest(wl, 3) == digest(wl, 4) {
			t.Errorf("%s: different seeds generated the same request bodies", wl)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if math.Abs(q1-3.5) > 1e-12 || math.Abs(q3-31) > 1e-12 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
}
