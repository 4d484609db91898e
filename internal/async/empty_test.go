package async

import (
	"context"
	"fmt"
	"maps"
	"testing"

	"apan/internal/tgraph"
)

// TestEmptyBatchIsANoOp: every public entry point answers an empty batch
// (nil or zero-length) with empty scores and a nil error, and touches
// nothing — not the model, not the queue, not the pipeline's or any
// tenant's counters — with and without tenancy, and for a rate-limited
// tenant, whose bucket has no first event to read a time from.
func TestEmptyBatchIsANoOp(t *testing.T) {
	ctx := context.Background()
	setups := map[string][]Option{
		"plain":   nil,
		"tenancy": {WithTenants(TenantConfig{ID: "a", Weight: 2})},
		"rate":    {WithTenants(TenantConfig{ID: "metered", Rate: 1, Burst: 2})},
	}
	for name, opts := range setups {
		p := New(testModel(t, nil), opts...)
		tenant := DefaultTenant
		for id := range p.TenantStats() {
			if id != DefaultTenant {
				tenant = id
			}
		}
		// Counters and state start non-zero, so a stray increment or write shows.
		if _, _, err := p.SubmitTenant(ctx, tenant, tev(0, 1, 1)); err != nil {
			t.Fatal(err)
		}
		if err := p.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		entries := map[string]func(events []tgraph.Event) ([]float32, error){
			"Submit":    func(evs []tgraph.Event) ([]float32, error) { s, _, err := p.Submit(ctx, evs); return s, err },
			"TrySubmit": func(evs []tgraph.Event) ([]float32, error) { s, _, err := p.TrySubmit(evs); return s, err },
			"ScoreOnly": func(evs []tgraph.Event) ([]float32, error) { s, _, err := p.ScoreOnly(evs); return s, err },
			"SubmitFuture": func(evs []tgraph.Event) ([]float32, error) {
				r := <-p.SubmitFuture(ctx, evs)
				return r.Scores, r.Err
			},
			"SubmitTenant": func(evs []tgraph.Event) ([]float32, error) {
				s, _, err := p.SubmitTenant(ctx, tenant, evs)
				return s, err
			},
			"TrySubmitTenant": func(evs []tgraph.Event) ([]float32, error) {
				s, _, err := p.TrySubmitTenant(tenant, evs)
				return s, err
			},
			"SubmitTenant/unknown": func(evs []tgraph.Event) ([]float32, error) {
				s, _, err := p.SubmitTenant(ctx, "unregistered", evs)
				return s, err
			},
		}
		for entry, call := range entries {
			for _, evs := range [][]tgraph.Event{nil, {}} {
				label := fmt.Sprintf("%s/%s/len%d(nil=%v)", name, entry, len(evs), evs == nil)
				stats, tenants := p.Stats(), p.TenantStats()
				digest, version := p.model.RuntimeDigest(), p.ParamVersion()
				scores, err := call(evs)
				if err != nil || scores == nil || len(scores) != 0 {
					t.Fatalf("%s: scores %v err %v, want empty scores and nil error", label, scores, err)
				}
				if got := p.Stats(); got != stats {
					t.Fatalf("%s moved the pipeline counters: %+v -> %+v", label, stats, got)
				}
				if got := p.TenantStats(); !maps.Equal(got, tenants) {
					t.Fatalf("%s moved the tenant ledger: %+v -> %+v", label, tenants, got)
				}
				if p.model.RuntimeDigest() != digest || p.ParamVersion() != version {
					t.Fatalf("%s touched the model", label)
				}
			}
		}
		p.Shutdown(context.Background())
	}
}
