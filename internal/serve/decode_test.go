package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"apan/internal/dataset"
	"apan/internal/tgraph"
)

// rigDim is the edge dimension of the Wikipedia/Reddit datasets, and so of
// the benchmark rig's bodies.
const rigDim = 172

// wireBody is a corpus entry: a request body and the edge dimension of the
// model it is sent to.
type wireBody struct {
	name string
	dim  int
	body string
}

// batchBody marshals events the way every client in the repo does: the
// rig's 200-event shape is batchBody(randEvents(rng, 200, rigDim)).
func batchBody(tb testing.TB, events []EventJSON) string {
	tb.Helper()
	b, err := json.Marshal(struct {
		Events []EventJSON `json:"events"`
	}{events})
	if err != nil {
		tb.Fatal(err)
	}
	return string(b)
}

// rigBody writes events the way the benchmark rig does: ids as integers,
// times as shortest float64 literals, features as shortest float32 ones.
func rigBody(events []tgraph.Event) string {
	b := []byte(`{"events":[`)
	for i, ev := range events {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"src":`...)
		b = strconv.AppendInt(b, int64(ev.Src), 10)
		b = append(b, `,"dst":`...)
		b = strconv.AppendInt(b, int64(ev.Dst), 10)
		b = append(b, `,"time":`...)
		b = strconv.AppendFloat(b, ev.Time, 'g', -1, 64)
		b = append(b, `,"feat":[`...)
		for j, f := range ev.Feat {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, float64(f), 'g', -1, 32)
		}
		b = append(b, `]}`...)
	}
	return string(append(b, `]}`...))
}

func randEvents(rng *rand.Rand, n, dim int) []EventJSON {
	events := make([]EventJSON, n)
	for i := range events {
		f := make([]float32, dim)
		for j := range f {
			f[j] = float32(rng.NormFloat64())
		}
		events[i] = EventJSON{Src: rng.Int31n(9000), Dst: rng.Int31n(9000), Time: rng.Float64() * 2.6e6, Feat: f}
	}
	return events
}

// numberEdges are literals at the edges of the decoder's fast number path:
// each converts there or falls back to strconv, and must agree with strconv
// either way (TestQuickNumbersMatchStrconv). validCorpus sends each in
// every field that accepts it.
var numberEdges = []string{
	// The float32 midpoint 1+2⁻²⁴ (ties to even: 1), and a literal just
	// above it (1.0000001).
	"1.000000059604644775390625", "1.000000059604644776",
	// Literals that are not float32 midpoints but whose fast-path float64
	// is one: only the midpoint test sends them to strconv.
	"5.269576787948608", "6.474296808242798", "1834488648455590e-18", "4153543257122406e1",
	// 19 and 20 significant digits. The last three are 2⁶⁴+1 in digits,
	// which a uint64 would wrap to 1.
	"1234567890123456789", "0.1234567890123456789", "12345678901234567890",
	"18446744073709551617", "1.8446744073709551617", "184467440737.09551617",
	// 2⁵³ ± 1, and exponents at and past ±22.
	"9007199254740991", "9007199254740993", "1e22", "1e23", "1e-22", "1e-23",
	"9007199254740991e22", "9007199254740991e-22", "123456789e-23", "0.00000000000000000000001",
	// Float32's range ends and signed zeros.
	"3.4028235e38", "3.5e38", "1e-45", "7e-46", "-0", "-0.0", "0e999999999", "-0.000e-5",
	// Node-id range ends.
	"2147483647", "2147483648", "-2147483648", "-2147483649",
}

// validCorpus is the set of bodies the decoder must keep accepting, each
// decoding to the bits encoding/json gives (TestDecodeScoreCorpus); it is
// also the seed corpus of FuzzDecodeScore.
func validCorpus(tb testing.TB) []wireBody {
	rng := rand.New(rand.NewSource(15))
	single, err := json.Marshal(randEvents(rng, 1, rigDim)[0])
	if err != nil {
		tb.Fatal(err)
	}
	corpus := []wireBody{
		{"rig batch of 200", rigDim, batchBody(tb, randEvents(rng, 200, rigDim))},
		{"single event", rigDim, string(single)},
	}
	// json.Marshal output of random requests over the hard float and string
	// cases.
	hard := []float32{
		0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		1.1754942e-38 /* largest subnormal */, math.MaxFloat32, -math.MaxFloat32, 1e-7, 1e21, 0.1, 16777217,
	}
	tenants := []string{"acme", "a\"b\\c/d\b\f\n\r\t\x7f", "naïve-テナント-😀", "<&>\u2028\u2029", ""}
	for i := 0; i < 8; i++ {
		req := ScoreRequest{Tenant: tenants[i%len(tenants)]}
		events := randEvents(rng, 1+rng.Intn(4), 4)
		for _, ev := range events {
			for j := range ev.Feat {
				if rng.Intn(2) == 0 {
					ev.Feat[j] = hard[rng.Intn(len(hard))]
				}
			}
		}
		events[0].Time = []float64{math.MaxFloat64, 5e-324, -0.0, 1e21, 1e-7}[i%5]
		if i%2 == 0 {
			req.Events = events
		} else {
			req.EventJSON = events[0]
		}
		b, err := json.Marshal(req)
		if err != nil {
			tb.Fatal(err)
		}
		corpus = append(corpus, wireBody{fmt.Sprintf("json.Marshal %d", i), 4, string(b)})
	}
	// The edge literals, each in every field whose strconv call accepts it.
	var feats, times, ids []string
	for _, tok := range numberEdges {
		if _, err := strconv.ParseFloat(tok, 32); err == nil {
			feats = append(feats, tok)
		}
		if _, err := strconv.ParseFloat(tok, 64); err == nil {
			times = append(times, `{"time":`+tok+`}`)
		}
		if _, err := strconv.ParseInt(tok, 10, 32); err == nil {
			ids = append(ids, `{"src":`+tok+`,"dst":`+tok+`}`)
		}
	}
	corpus = append(corpus,
		wireBody{"edge literals as features", len(feats), `{"feat":[` + strings.Join(feats, ",") + `]}`},
		wireBody{"edge literals as times", 0, `{"events":[` + strings.Join(times, ",") + `]}`},
		wireBody{"edge literals as node ids", 0, `{"events":[` + strings.Join(ids, ",") + `]}`},
	)
	return append(corpus,
		wireBody{"interior whitespace", 2, " \t\r\n{ \"src\" : 1 ,\n\"dst\":\t2, \"time\" : 3.5 , \"feat\" : [ 1 , 2 ] } \n"},
		wireBody{"exponent forms", 3, `{"src":-0,"dst":7,"time":1E+2,"feat":[-0.0e-0,1e5,2.5E-3]}`},
		wireBody{"escaped tenant", 0, `{"tenant":"é😀\/\"\\\b\f\n\r\t","feat":[]}`},
		wireBody{"lone surrogates and invalid UTF-8 in tenant", 0, "{\"tenant\":\"\\ud800x\\udc00\\ud800\\u0041\xff\xc0\",\"feat\":[]}"},
		wireBody{"unknown keys", 1, `{"id":9,"src":1,"label":null,"dst":2,"note":"x","ok":true,"no":false,"time":3,"feat":[4]}`},
		wireBody{"nested unknown keys", 1, `{"meta":{"a":[1,{"b":[[],{}]}],"c":"é"},"events":[{"src":1,"dst":2,"time":3,"feat":[4],"extra":[{"feat":[1,2,3]}]}]}`},
		wireBody{"events null is an inline body", 1, `{"events":null,"src":1,"dst":2,"time":3,"feat":[4]}`},
		wireBody{"null fields are absent", 1, `{"src":null,"dst":null,"time":null,"tenant":null,"feat":null,"events":[{"src":1,"dst":null,"time":3,"feat":[4]}]}`},
		wireBody{"Go field names", 1, `{"Events":[{"ID":0,"Src":1,"Dst":2,"Time":3,"Feat":[4],"Label":-1}],"TENANT":"t"}`},
		wireBody{"escaped and folded keys", 1, `{"\u0073rc":1,"dſt":2,"time":3,"feat":[4]}`},
		wireBody{"events and tenant inside an event are unknown", 1, `{"events":[{"events":[1],"tenant":7,"src":1,"dst":2,"time":3,"feat":[4]}]}`},
		wireBody{"empty object", 0, `{}`},
		wireBody{"empty events", 1, `{"events":[]}`},
		wireBody{"inline feat beside events", 1, `{"feat":[1],"events":[{"feat":[2]}]}`},
		wireBody{"empty event objects", 0, `{"events":[{},{ }]}`},
		wireBody{"the batch cap itself", 0, `{"events":[` + strings.Repeat("{},", maxBatchEvents-1) + `{}]}`},
		wireBody{"short feat", 3, `{"feat":[1]}`},
		wireBody{"out-of-range ids are the handler's to refuse", 1, `{"src":-5,"dst":2147483647,"time":-1e300,"feat":[0]}`},
	)
}

// refusal is a body the API turns down, with the error code it answers.
type refusal struct {
	wireBody
	code string
}

// refused is one body per way a request is turned down. The first group is
// refused by the decoder, the second by the handler (served by a model of
// testNodes nodes and testDim features, MaxNodes 16).
func refused() []refusal {
	type c = refusal
	feat8 := `"feat":[0,0,0,0,0,0,0,0]`
	cases := []c{
		{wireBody{"not json", 1, `{not json`}, "bad_json"},
		{wireBody{"empty body", 1, ``}, "bad_json"},
		{wireBody{"truncated", 1, `{"src":1,"feat":[1`}, "bad_json"},
		{wireBody{"top-level array", 1, `[{"src":1}]`}, "bad_json"},
		{wireBody{"top-level null", 1, `null`}, "bad_json"},
		{wireBody{"trailing bytes", 1, `{"feat":[1]}{"feat":[1]}`}, "bad_json"},
		{wireBody{"trailing comma", 1, `{"feat":[1],}`}, "bad_json"},
		{wireBody{"duplicate key", 1, `{"src":1,"src":2,"feat":[1]}`}, "bad_json"},
		{wireBody{"duplicate key by case", 1, `{"src":1,"SRC":2,"feat":[1]}`}, "bad_json"},
		{wireBody{"duplicate key in an event", 1, `{"events":[{"feat":[1],"feat":[2]}]}`}, "bad_json"},
		{wireBody{"null event", 1, `{"events":[null]}`}, "bad_json"},
		{wireBody{"null feat element", 1, `{"feat":[null]}`}, "bad_json"},
		{wireBody{"string for a number", 1, `{"src":"1","feat":[1]}`}, "bad_json"},
		{wireBody{"number for the tenant", 1, `{"tenant":7,"feat":[1]}`}, "bad_json"},
		{wireBody{"object for feat", 1, `{"feat":{}}`}, "bad_json"},
		{wireBody{"control character in a string", 1, "{\"tenant\":\"a\nb\",\"feat\":[1]}"}, "bad_json"},
		{wireBody{"bad escape", 1, `{"tenant":"\x41","feat":[1]}`}, "bad_json"},
		{wireBody{"short \\u", 1, `{"tenant":"\u12","feat":[1]}`}, "bad_json"},
		{wireBody{"bad literal under an unknown key", 1, `{"x":nul,"feat":[1]}`}, "bad_json"},
		{wireBody{"unknown value nested too deep", 1, `{"x":` + strings.Repeat("[", maxSkipDepth+2) + strings.Repeat("]", maxSkipDepth+2) + `,"feat":[1]}`}, "bad_json"},
		// What strconv takes and the JSON number grammar does not.
		{wireBody{"NaN", 1, `{"feat":[NaN]}`}, "bad_json"},
		{wireBody{"Infinity", 1, `{"time":Infinity,"feat":[1]}`}, "bad_json"},
		{wireBody{"-Inf", 1, `{"feat":[-Inf]}`}, "bad_json"},
		{wireBody{"hex float", 1, `{"feat":[0x1p3]}`}, "bad_json"},
		{wireBody{"leading plus", 1, `{"feat":[+1]}`}, "bad_json"},
		{wireBody{"leading dot", 1, `{"feat":[.5]}`}, "bad_json"},
		{wireBody{"trailing dot", 1, `{"feat":[1.]}`}, "bad_json"},
		{wireBody{"digit separator", 1, `{"feat":[1_0]}`}, "bad_json"},
		{wireBody{"leading zero", 1, `{"feat":[01]}`}, "bad_json"},
		{wireBody{"bare exponent", 1, `{"feat":[1e]}`}, "bad_json"},
		{wireBody{"bare minus", 1, `{"feat":[-]}`}, "bad_json"},
		{wireBody{"hex under an unknown key", 1, `{"x":0x10,"feat":[1]}`}, "bad_json"},
		// Grammatical numbers that do not fit their field.
		{wireBody{"feat overflows float32", 1, `{"feat":[1e39]}`}, "bad_json"},
		{wireBody{"feat overflows float32 by rounding", 1, `{"feat":[3.4028236e38]}`}, "bad_json"},
		{wireBody{"feat overflows float64", 1, `{"feat":[-1e999]}`}, "bad_json"},
		{wireBody{"time overflows float64", 1, `{"time":1e999,"feat":[1]}`}, "bad_json"},
		{wireBody{"fractional src", 1, `{"src":1.5,"feat":[1]}`}, "bad_json"},
		{wireBody{"integral but not an integer literal", 1, `{"dst":1e2,"feat":[1]}`}, "bad_json"},
		{wireBody{"feat overflows float32 from a short literal", 1, `{"feat":[3.5e38]}`}, "bad_json"},
		{wireBody{"time overflows float64 from a short literal", 1, `{"time":1e309,"feat":[1]}`}, "bad_json"},
		{wireBody{"src of 20 digits that wrap a uint64 to 1", 1, `{"src":18446744073709551617,"feat":[1]}`}, "bad_json"},
		{wireBody{"dst with a zero fraction", 1, `{"dst":1.0,"feat":[1]}`}, "bad_json"},
		{wireBody{"src with a zero exponent", 1, `{"src":-0e0,"feat":[1]}`}, "bad_json"},
		{wireBody{"src overflows int32", 1, `{"src":2147483648,"feat":[1]}`}, "bad_json"},
		{wireBody{"dst underflows int32", 1, `{"dst":-2147483649,"feat":[1]}`}, "bad_json"},
		{wireBody{"feat overruns the model's dimension", 2, `{"feat":[1,2,3]}`}, "bad_feat_dim"},
		{wireBody{"feat overruns inside a batch", 2, `{"events":[{"feat":[1,2]},{"feat":[1,2,3,4,5,6,7,8,9]}]}`}, "bad_feat_dim"},
		{wireBody{"more events than the cap", 0, `{"events":[` + strings.Repeat("{},", maxBatchEvents) + `{}]}`}, "batch_too_large"},
	}
	handler := []c{
		{wireBody{"inline feat and events", testDim, `{` + feat8 + `,"events":[{"src":0,"dst":1,"time":1,` + feat8 + `}]}`}, "ambiguous_body"},
		{wireBody{"no events", testDim, `{"events":[]}`}, "empty_batch"},
		{wireBody{"negative id", testDim, `{"src":-1,"dst":1,"time":1,` + feat8 + `}`}, "node_out_of_range"},
		{wireBody{"id past the admission limit", testDim, `{"src":0,"dst":16,"time":1,` + feat8 + `}`}, "node_limit_exceeded"},
		{wireBody{"short feat", testDim, `{"src":0,"dst":1,"time":1,"feat":[0]}`}, "bad_feat_dim"},
		{wireBody{"no feat", testDim, `{"src":0,"dst":1,"time":1}`}, "bad_feat_dim"},
	}
	return append(cases, handler...)
}

// checkAgainstJSON decodes body both ways and fails if the decoder accepted
// it and encoding/json does not, or decodes it to anything else. It reports
// whether the decoder accepted.
func checkAgainstJSON(t *testing.T, body []byte, dim int) bool {
	t.Helper()
	req, derr := decodeScore(body, dim)
	if derr != nil {
		return false
	}
	var ref ScoreRequest
	if err := json.Unmarshal(body, &ref); err != nil {
		t.Fatalf("accepted a body encoding/json refuses (%v): %q", err, body)
	}
	if req.tenant != ref.Tenant {
		t.Fatalf("tenant %q, encoding/json %q: %q", req.tenant, ref.Tenant, body)
	}
	if req.batch != (ref.Events != nil) || req.inline != (ref.Feat != nil) {
		t.Fatalf("batch %v inline %v, encoding/json events %v feat %v: %q", req.batch, req.inline, ref.Events != nil, ref.Feat != nil, body)
	}
	want := ref.Events
	if !req.batch {
		want = []EventJSON{ref.EventJSON}
	}
	if len(req.events) != len(want) {
		t.Fatalf("%d events, encoding/json %d: %q", len(req.events), len(want), body)
	}
	for i, ev := range req.events {
		w := want[i]
		same := ev.Src == w.Src && ev.Dst == w.Dst && math.Float64bits(ev.Time) == math.Float64bits(w.Time) &&
			len(ev.Feat) == len(w.Feat) && ev.Label == -1 && ev.ID == 0
		for j := 0; same && j < len(w.Feat); j++ {
			same = math.Float32bits(ev.Feat[j]) == math.Float32bits(w.Feat[j])
		}
		if !same {
			t.Fatalf("event %d: %+v, encoding/json %+v: %q", i, ev, w, body)
		}
	}
	return true
}

// FuzzDecodeScore: the decoder is never the more permissive one, and where
// it accepts, it agrees with encoding/json to the bit.
func FuzzDecodeScore(f *testing.F) {
	for _, c := range validCorpus(f) {
		f.Add([]byte(c.body), uint8(c.dim))
	}
	for _, c := range refused() {
		f.Add([]byte(c.body), uint8(c.dim))
	}
	f.Fuzz(func(t *testing.T, body []byte, dim uint8) {
		checkAgainstJSON(t, body, int(dim))
	})
}

// TestDecodeScoreCorpus pins both edges of what the decoder accepts: every
// valid body stays accepted (strictness cannot creep) and bit-equal to
// encoding/json, every refused body keeps its code.
func TestDecodeScoreCorpus(t *testing.T) {
	for _, c := range validCorpus(t) {
		if !checkAgainstJSON(t, []byte(c.body), c.dim) {
			_, derr := decodeScore([]byte(c.body), c.dim)
			t.Errorf("%s: refused: %v", c.name, derr)
		}
	}
	for _, c := range refused() {
		_, derr := decodeScore([]byte(c.body), c.dim)
		switch c.code {
		case "bad_json", "batch_too_large":
			if derr == nil || derr.code != c.code {
				t.Errorf("%s: %v, want %s", c.name, derr, c.code)
			}
		case "bad_feat_dim":
			// The decoder's when feat overruns, the handler's when short.
		default:
			if derr != nil {
				t.Errorf("%s: the decoder refused what the handler should: %v", c.name, derr)
			}
		}
	}
}

// matchesStrconv reports how the decoder's number parsers, run on tok
// alone, differ from the strconv call each stands for: feat from
// ParseFloat(tok, 32), time from ParseFloat(tok, 64), node ids from
// ParseInt(tok, 10, 32). Each must give the same bits, consume the whole
// token, and refuse exactly where strconv errs, with its own message.
func matchesStrconv(tok string) error {
	for _, c := range []struct {
		field string
		got   func(d *scoreDecoder) uint64
		want  func() (uint64, error)
		msg   string
	}{
		{"feat", func(d *scoreDecoder) uint64 { return uint64(math.Float32bits(d.float32())) }, func() (uint64, error) {
			f, err := strconv.ParseFloat(tok, 32)
			return uint64(math.Float32bits(float32(f))), err
		}, "offset 0: number %s does not fit a float32"},
		{"time", func(d *scoreDecoder) uint64 { return math.Float64bits(d.float64()) }, func() (uint64, error) {
			f, err := strconv.ParseFloat(tok, 64)
			return math.Float64bits(f), err
		}, "offset 0: number %s does not fit a float64"},
		{"id", func(d *scoreDecoder) uint64 { return uint64(uint32(d.int32())) }, func() (uint64, error) {
			n, err := strconv.ParseInt(tok, 10, 32)
			return uint64(uint32(n)), err
		}, "offset 0: node id %s is not a 32-bit integer"},
	} {
		d := scoreDecoder{b: []byte(tok)}
		got := c.got(&d)
		want, err := c.want()
		switch {
		case d.i != len(tok):
			return fmt.Errorf("%s %s: scanned %d of %d bytes (%v)", c.field, tok, d.i, len(tok), d.err)
		case err != nil && (d.err == nil || d.err.code != "bad_json" || d.err.msg != fmt.Sprintf(c.msg, tok)):
			return fmt.Errorf("%s %s: decoder error %v, strconv %v", c.field, tok, d.err, err)
		case err == nil && d.err != nil:
			return fmt.Errorf("%s %s: decoder error %v, strconv accepts", c.field, tok, d.err)
		case err == nil && got != want:
			return fmt.Errorf("%s %s: bits %#x, strconv %#x", c.field, tok, got, want)
		}
	}
	return nil
}

// TestQuickNumbersMatchStrconv: the fused scanner converts every number as
// strconv does, bit for bit and error for error, on the edge literals and
// on random values printed the way clients print them — float32 bit
// patterns shortest ('g', as the rig and encoding/json write features) and
// at random precisions ('e', 'f'), float64 patterns shortest, and integers
// in and past int32.
func TestQuickNumbersMatchStrconv(t *testing.T) {
	for _, tok := range numberEdges {
		if err := matchesStrconv(tok); err != nil {
			t.Error(err)
		}
	}
	f := func(bits uint32, wide uint64, form, prec uint8) bool {
		x := float64(math.Float32frombits(bits))
		var tok string
		switch form % 5 {
		case 0:
			tok = strconv.FormatFloat(x, 'g', -1, 32)
		case 1:
			tok = strconv.FormatFloat(x, 'e', int(prec%24), 32)
		case 2:
			tok = strconv.FormatFloat(x, 'f', int(prec%24), 32)
		case 3:
			tok = strconv.FormatFloat(math.Float64frombits(wide), 'g', -1, 64)
		case 4:
			tok = strconv.FormatInt(int64(wide)>>(prec%64), 10)
		}
		if strings.ContainsAny(tok, "NI") { // NaN, ±Inf: not JSON numbers
			return true
		}
		if err := matchesStrconv(tok); err != nil {
			t.Error(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50000}); err != nil {
		t.Fatal(err)
	}
}

// TestScoreRefusals posts every refused body and checks status and code.
func TestScoreRefusals(t *testing.T) {
	ts, pipe := newTestServer(t, Options{MaxNodes: 2 * testNodes})
	for _, c := range refused() {
		if c.dim != testDim && c.code == "bad_feat_dim" {
			continue // written for another model; bad_json never gets as far as the dimension
		}
		resp, err := http.Post(ts.URL+"/v1/score", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var raw bytes.Buffer
		_, _ = raw.ReadFrom(resp.Body)
		resp.Body.Close()
		status := http.StatusBadRequest
		if c.code == "batch_too_large" {
			status = http.StatusRequestEntityTooLarge
		}
		if got := errCode(t, raw.Bytes()); resp.StatusCode != status || got != c.code {
			t.Errorf("%s: %d %s, want %d %s", c.name, resp.StatusCode, raw.Bytes(), status, c.code)
		}
	}
	if st := pipe.Stats(); st.Submitted != 0 {
		t.Fatalf("refused requests reached the pipeline: %+v", st)
	}
}

// TestDecodeScoreAllocs: decoding allocates the event slice and the feature
// arena, not per event or per number.
func TestDecodeScoreAllocs(t *testing.T) {
	corpus := validCorpus(t)
	for _, c := range []struct {
		wireBody
		max float64
	}{{corpus[0], 4}, {corpus[1], 3}} {
		body := []byte(c.body)
		got := testing.AllocsPerRun(20, func() {
			if _, derr := decodeScore(body, c.dim); derr != nil {
				t.Fatal(derr)
			}
		})
		if got > c.max {
			t.Errorf("%s: %v allocations, want at most %v", c.name, got, c.max)
		}
	}
}

// BenchmarkDecodeScore measures the request decoder, with encoding/json
// into ScoreRequest beside it as the reference docs/performance.md quotes,
// on a single event and a 200-event batch of random normal features as
// json.Marshal writes them, and on the body the benchmark rig sends: 200
// dataset events written as shortest literals.
func BenchmarkDecodeScore(b *testing.B) {
	corpus := validCorpus(b)
	ds := dataset.Wikipedia(dataset.Config{Scale: 0.001, Seed: 1})
	rig := wireBody{"rig200", ds.EdgeDim, rigBody(ds.Events[:200])}
	for _, c := range []wireBody{{"single", rigDim, corpus[1].body}, {"batch200", rigDim, corpus[0].body}, rig} {
		body := []byte(c.body)
		b.Run(c.name, func(b *testing.B) {
			b.Run("scanner", func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for b.Loop() {
					if _, derr := decodeScore(body, c.dim); derr != nil {
						b.Fatal(derr)
					}
				}
			})
			b.Run("encoding_json", func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for b.Loop() {
					var req ScoreRequest
					if err := json.Unmarshal(body, &req); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
