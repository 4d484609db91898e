package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzParseCSV: ParseCSV never panics, and every dataset it accepts is one
// the models can run: ids in [0, NumNodes) with sources below NumUsers and
// destinations at or above it, every feature row EdgeDim wide, timestamps
// finite and non-decreasing, IDs in stream order. WriteCSV→ParseCSV must
// reproduce it bit for bit, labels normalized as WriteCSV writes them.
func FuzzParseCSV(f *testing.F) {
	f.Add(roundTripCSV)
	for _, c := range parseCSVErrors {
		f.Add(c.csv)
	}
	f.Fuzz(func(t *testing.T, text string) {
		d, err := ParseCSV(strings.NewReader(text), "fuzz")
		if err != nil {
			return
		}
		if d.NumUsers < 1 || d.NumNodes <= d.NumUsers || d.NumNodes-1 > math.MaxInt32 || d.EdgeDim < 1 {
			t.Fatalf("shape: users %d nodes %d dim %d", d.NumUsers, d.NumNodes, d.EdgeDim)
		}
		for i := range d.Events {
			ev := &d.Events[i]
			if ev.Src < 0 || int(ev.Src) >= d.NumUsers || int(ev.Dst) < d.NumUsers || int(ev.Dst) >= d.NumNodes {
				t.Fatalf("event %d: src %d dst %d outside users [0,%d) and items [%d,%d)",
					i, ev.Src, ev.Dst, d.NumUsers, d.NumUsers, d.NumNodes)
			}
			if len(ev.Feat) != d.EdgeDim || ev.ID != int64(i) {
				t.Fatalf("event %d: %d features for EdgeDim %d, ID %d", i, len(ev.Feat), d.EdgeDim, ev.ID)
			}
			if math.IsNaN(ev.Time) || math.IsInf(ev.Time, 0) || (i > 0 && ev.Time < d.Events[i-1].Time) {
				t.Fatalf("event %d: time %v after %v", i, ev.Time, d.Events[max(i-1, 0)].Time)
			}
		}

		var buf bytes.Buffer
		if err := WriteCSV(&buf, d); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		got, err := ParseCSV(&buf, d.Name)
		if err != nil {
			t.Fatalf("ParseCSV of WriteCSV's output: %v", err)
		}
		if got.NumUsers != d.NumUsers || got.NumNodes != d.NumNodes || got.EdgeDim != d.EdgeDim || len(got.Events) != len(d.Events) {
			t.Fatalf("round trip changed the shape: users %d→%d nodes %d→%d dim %d→%d events %d→%d",
				d.NumUsers, got.NumUsers, d.NumNodes, got.NumNodes, d.EdgeDim, got.EdgeDim, len(d.Events), len(got.Events))
		}
		for i := range d.Events {
			a, b := &d.Events[i], &got.Events[i]
			label := int8(0)
			if a.Label == 1 {
				label = 1
			}
			if a.Src != b.Src || a.Dst != b.Dst || b.Label != label || a.ID != b.ID ||
				math.Float64bits(a.Time) != math.Float64bits(b.Time) {
				t.Fatalf("event %d: %+v round-tripped to %+v", i, a, b)
			}
			for j := range a.Feat {
				if math.Float32bits(a.Feat[j]) != math.Float32bits(b.Feat[j]) {
					t.Fatalf("event %d feature %d: %v round-tripped to %v", i, j, a.Feat[j], b.Feat[j])
				}
			}
		}
	})
}
