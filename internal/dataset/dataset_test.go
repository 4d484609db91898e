package dataset

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"apan/internal/tgraph"
)

func tiny(t *testing.T) *Dataset {
	t.Helper()
	return Wikipedia(Config{Scale: 0.01, Seed: 1})
}

func TestWikipediaGeneratorShape(t *testing.T) {
	d := tiny(t)
	if d.EdgeDim != 172 {
		t.Fatalf("EdgeDim=%d", d.EdgeDim)
	}
	if !d.Bipartite || d.NumUsers == 0 {
		t.Fatal("wikipedia must be bipartite")
	}
	if len(d.Events) < 200 {
		t.Fatalf("too few events: %d", len(d.Events))
	}
	for i, e := range d.Events {
		if int64(i) != e.ID {
			t.Fatalf("event %d has id %d", i, e.ID)
		}
		if i > 0 && e.Time < d.Events[i-1].Time {
			t.Fatal("events not sorted by time")
		}
		if int(e.Src) >= d.NumUsers {
			t.Fatalf("src %d is not a user", e.Src)
		}
		if int(e.Dst) < d.NumUsers || int(e.Dst) >= d.NumNodes {
			t.Fatalf("dst %d is not an item", e.Dst)
		}
		if len(e.Feat) != d.EdgeDim {
			t.Fatalf("feature dim %d", len(e.Feat))
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := Wikipedia(Config{Scale: 0.01, Seed: 42})
	b := Wikipedia(Config{Scale: 0.01, Seed: 42})
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i].Src != b.Events[i].Src || a.Events[i].Time != b.Events[i].Time {
			t.Fatalf("event %d differs", i)
		}
	}
	c := Wikipedia(Config{Scale: 0.01, Seed: 43})
	same := true
	for i := range a.Events {
		if i < len(c.Events) && (a.Events[i].Src != c.Events[i].Src || a.Events[i].Time != c.Events[i].Time) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestLabelsSparseAndBothClasses(t *testing.T) {
	d := Wikipedia(Config{Scale: 0.05, Seed: 3})
	var pos, neg, unlabeled int
	for _, e := range d.Events {
		switch e.Label {
		case 1:
			pos++
		case 0:
			neg++
		default:
			unlabeled++
		}
	}
	if pos == 0 || neg == 0 {
		t.Fatalf("need both label classes: %d pos, %d neg", pos, neg)
	}
	if pos+neg >= unlabeled {
		t.Fatalf("labels must be sparse: %d labeled vs %d unlabeled", pos+neg, unlabeled)
	}
}

func TestAlipayGenerator(t *testing.T) {
	d := Alipay(Config{Scale: 0.001, Seed: 5})
	if d.Bipartite {
		t.Fatal("alipay is not bipartite")
	}
	if d.EdgeDim != 101 {
		t.Fatalf("EdgeDim=%d", d.EdgeDim)
	}
	var fraud int
	for i, e := range d.Events {
		if i > 0 && e.Time < d.Events[i-1].Time {
			t.Fatal("not sorted")
		}
		if e.Src == e.Dst {
			t.Fatal("self transaction")
		}
		if e.Label == 1 {
			fraud++
		}
	}
	if fraud == 0 {
		t.Fatal("no fraud edges generated")
	}
	frac := float64(fraud) / float64(len(d.Events))
	if frac > 0.05 {
		t.Fatalf("fraud fraction too high: %v", frac)
	}
}

func TestSplitChronological(t *testing.T) {
	d := tiny(t)
	s := d.Split(0.7, 0.15)
	total := len(s.Train) + len(s.Val) + len(s.Test)
	if total != len(d.Events) {
		t.Fatalf("split loses events: %d vs %d", total, len(d.Events))
	}
	if len(s.Train) == 0 || len(s.Val) == 0 || len(s.Test) == 0 {
		t.Fatal("empty split part")
	}
	if s.Train[len(s.Train)-1].Time > s.Val[0].Time {
		t.Fatal("train overlaps val in time")
	}
	if s.Val[len(s.Val)-1].Time > s.Test[0].Time {
		t.Fatal("val overlaps test in time")
	}
	if len(s.NewNodeInVal) != len(s.Val) || len(s.NewNodeInTest) != len(s.Test) {
		t.Fatal("inductive masks misaligned")
	}
}

func TestSplitBadFractionsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tiny(t).Split(0.9, 0.2)
}

func TestStatsTable1Shape(t *testing.T) {
	d := tiny(t)
	st := d.Stats(0.7, 0.15)
	if st.Nodes != d.NumNodes || st.Edges != len(d.Events) {
		t.Fatalf("stats mismatch: %+v", st)
	}
	if st.NodesInTrain == 0 || st.NodesInTrain > st.Nodes {
		t.Fatalf("NodesInTrain=%d", st.NodesInTrain)
	}
	if st.TimespanDays <= 0 || st.TimespanDays > 31 {
		t.Fatalf("TimespanDays=%v", st.TimespanDays)
	}
	if st.OldNodesInValTest+st.UnseenNodesInValTest == 0 {
		t.Fatal("no val/test nodes")
	}
	if st.LabeledInteractions == 0 {
		t.Fatal("no labels counted")
	}
}

func TestNegSamplerPoolGrowth(t *testing.T) {
	ns := NewNegSampler(10)
	rng := rand.New(rand.NewSource(1))
	if got := ns.Sample(rng, 3); got != 3 {
		t.Fatalf("empty pool should return exclude, got %d", got)
	}
	ns.Observe(&tgraph.Event{Dst: 5})
	ns.Observe(&tgraph.Event{Dst: 5}) // dedup
	ns.Observe(&tgraph.Event{Dst: 7})
	if ns.PoolSize() != 2 {
		t.Fatalf("pool=%d", ns.PoolSize())
	}
	for i := 0; i < 50; i++ {
		got := ns.Sample(rng, 5)
		if got != 7 {
			t.Fatalf("sample with exclude: got %d", got)
		}
	}
}

func TestGraphPrefix(t *testing.T) {
	d := tiny(t)
	g := d.Graph(100)
	if g.NumEvents() != 100 {
		t.Fatalf("prefix graph has %d events", g.NumEvents())
	}
	if g.NumNodes() != d.NumNodes {
		t.Fatalf("nodes %d", g.NumNodes())
	}
}

// roundTripCSV is TestParseCSVRoundTrip's file, also a FuzzParseCSV seed.
const roundTripCSV = `user_id,item_id,timestamp,state_label,f0,f1
0,0,1.0,0,0.5,1.5
1,0,2.0,1,-0.5,0.25
0,1,3.0,0,0.0,0.0
`

func TestParseCSVRoundTrip(t *testing.T) {
	d, err := ParseCSV(strings.NewReader(roundTripCSV), "test")
	if err != nil {
		t.Fatal(err)
	}
	if d.NumUsers != 2 || d.NumNodes != 4 {
		t.Fatalf("nodes: users=%d total=%d", d.NumUsers, d.NumNodes)
	}
	if d.EdgeDim != 2 {
		t.Fatalf("EdgeDim=%d", d.EdgeDim)
	}
	if len(d.Events) != 3 {
		t.Fatalf("events=%d", len(d.Events))
	}
	e := d.Events[1]
	if e.Src != 1 || e.Dst != 2 || e.Label != 1 || e.Feat[1] != 0.25 {
		t.Fatalf("event parsed wrong: %+v", e)
	}
}

func TestCSVRoundTripThroughWriter(t *testing.T) {
	d := Wikipedia(Config{Scale: 0.005, Seed: 4})
	var buf strings.Builder
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ParseCSV(strings.NewReader(buf.String()), d.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(d.Events) {
		t.Fatalf("events: %d vs %d", len(got.Events), len(d.Events))
	}
	if got.EdgeDim != d.EdgeDim {
		t.Fatalf("dims: %d vs %d", got.EdgeDim, d.EdgeDim)
	}
	for i := range d.Events {
		a, b := &d.Events[i], &got.Events[i]
		if a.Src != b.Src || a.Time != b.Time {
			t.Fatalf("event %d differs: %+v vs %+v", i, a, b)
		}
		// Labels: -1 (unlabeled) and 0 both serialize as 0.
		wantLabel := int8(0)
		if a.Label == 1 {
			wantLabel = 1
		}
		if b.Label != wantLabel {
			t.Fatalf("event %d label %d vs %d", i, b.Label, wantLabel)
		}
		for j := range a.Feat {
			if a.Feat[j] != b.Feat[j] {
				t.Fatalf("event %d feature %d: %v vs %v", i, j, a.Feat[j], b.Feat[j])
			}
		}
	}
}

func TestWriteCSVRejectsNonBipartite(t *testing.T) {
	d := Alipay(Config{Scale: 0.0005, Seed: 1})
	var buf strings.Builder
	if err := WriteCSV(&buf, d); err == nil {
		t.Fatal("want error for non-bipartite dataset")
	}
}

// parseCSVErrors are files ParseCSV must refuse, each with the line
// number of the offending row (0: the error is about the whole file). They
// also seed FuzzParseCSV.
var parseCSVErrors = []struct {
	name, csv string
	line      int
}{
	{"empty", "header\n", 0},
	{"too few fields", "header\n1,2\n", 2},
	{"bad user", "header\nx,2,3.0,0\n", 2},
	{"bad timestamp", "header\n1,2,zzz,0\n", 2},
	{"bad feature", "header\n1,2,3.0,0,notnum\n", 2},
	{"negative user", "header\n-1,0,1.0,0\n", 2},
	{"negative item", "header\n0,0,1.0,0\n0,-1,2.0,0\n", 3},
	{"user past int32", "header\n3000000000,0,1.0,0\n", 2},
	{"item past int32", "header\n0,3000000000,1.0,0\n", 2},
	{"users plus items past int32", "header\n2000000000,0,1.0,0\n0,2000000000,2.0,0\n", 3},
	{"ragged features", "header\n0,0,1.0,0,0.5,1.5\n1,0,2.0,0,0.5\n", 3},
	{"NaN timestamp", "header\n0,0,1.0,0\n0,1,NaN,0\n", 3},
	{"+Inf timestamp", "header\n0,0,+Inf,0\n", 2},
	{"-Inf timestamp", "header\n0,0,-Inf,0\n", 2},
	{"label above int8", "header\n0,0,1.0,300\n", 2},
	{"label below int8", "header\n0,0,1.0,-129\n", 2},
	{"fractional label", "header\n0,0,1.0,0.5\n", 2},
	{"NaN label", "header\n0,0,1.0,NaN\n", 2},
}

func TestParseCSVErrors(t *testing.T) {
	for _, c := range parseCSVErrors {
		_, err := ParseCSV(strings.NewReader(c.csv), "bad")
		switch {
		case err == nil:
			t.Errorf("%s: parsed without error", c.name)
		case c.line > 0 && !strings.Contains(err.Error(), fmt.Sprintf("line %d", c.line)):
			t.Errorf("%s: error %q does not name line %d", c.name, err, c.line)
		}
	}
}
