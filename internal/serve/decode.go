package serve

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"apan/internal/tgraph"
)

const (
	// maxBodyBytes caps a /v1/score request body.
	maxBodyBytes = 16 << 20
	// maxBatchEvents caps the events of one request: 20× the paper's
	// batch-200 operating point, a ≈120 ms synchronous pass. Larger batches
	// would hold a scorer (and its workspace) for longer than any caller of
	// a millisecond decision system should wait; split them client-side.
	maxBatchEvents = 4096
	// maxSkipDepth bounds the nesting of values under unknown keys.
	maxSkipDepth = 32
)

// scoreRequest is a decoded POST /v1/score body. events holds the batch
// under "events", or the one inline event; every Feat is a sub-slice of one
// arena allocated for the request.
type scoreRequest struct {
	events []tgraph.Event
	tenant string
	batch  bool // an "events" array was present (even empty)
	inline bool // an inline "feat" array was present
}

// decodeError is a request the decoder refused, as the API's error code
// and message.
type decodeError struct {
	code, msg string
}

func (e *decodeError) Error() string { return e.code + ": " + e.msg }

// scoreDecoder is a single-pass scanner for exactly the /v1/score request
// schema. It accepts a subset of what encoding/json accepts into
// ScoreRequest and decodes that subset to the same bits: numbers are checked
// against the JSON grammar and then parsed by strconv, as encoding/json
// does. Stricter than encoding/json on purpose: one top-level object and
// nothing after it, no duplicate keys, numbers (not null) inside "feat",
// objects (not null) inside "events".
type scoreDecoder struct {
	b   []byte
	i   int
	dim int
	err *decodeError

	scoreRequest              // what has been decoded so far; events is the "events" array
	top          tgraph.Event // the top-level event fields
	arena        []float32
}

// Key bits, for duplicate detection within one object.
const (
	keySrc = 1 << iota
	keyDst
	keyTime
	keyFeat
	keyEvents
	keyTenant

	eventKeys   = keySrc | keyDst | keyTime | keyFeat
	requestKeys = eventKeys | keyEvents | keyTenant
)

// DecodeScoreRequest parses a POST /v1/score body for a model whose events
// carry edgeDim features, returning the request's events (one for an inline
// body) and its "tenant" field. It is the server's own request decoder,
// exported for the perf trajectory (internal/bench); the returned error
// names the API error code.
func DecodeScoreRequest(body []byte, edgeDim int) ([]tgraph.Event, string, error) {
	req, err := decodeScore(body, edgeDim)
	if err != nil {
		return nil, "", err
	}
	return req.events, req.tenant, nil
}

func decodeScore(body []byte, dim int) (scoreRequest, *decodeError) {
	d := scoreDecoder{b: body, dim: dim, top: tgraph.Event{Label: -1}}
	// Size the event slice and the feature arena once. The count of "feat"
	// keys is only a hint — a body that spells the key with escapes or in
	// another case grows both by append instead — and it is clamped by what
	// the body could hold, so a hostile body cannot make the server allocate
	// more than a small multiple of its own size.
	hint := min(bytes.Count(body, []byte(`"feat"`)), len(body)/(2*dim+16)+1, maxBatchEvents)
	d.events = make([]tgraph.Event, 0, hint)
	d.arena = make([]float32, 0, hint*dim)

	d.object(&d.top, 0, requestKeys)
	d.ws()
	if d.err == nil && d.i != len(d.b) {
		d.fail("bad_json", "offset %d: data after the request object", d.i)
	}
	if d.err != nil {
		return scoreRequest{}, d.err
	}
	d.inline = d.top.Feat != nil
	if !d.batch {
		d.events = append(d.events, d.top)
	}
	return d.scoreRequest, nil
}

func (d *scoreDecoder) fail(code, format string, args ...any) {
	if d.err == nil {
		d.err = &decodeError{code: code, msg: fmt.Sprintf(format, args...)}
	}
}

func (d *scoreDecoder) syntax(want string) {
	if d.i >= len(d.b) {
		d.fail("bad_json", "unexpected end of body, want %s", want)
		return
	}
	d.fail("bad_json", "offset %d: found %q, want %s", d.i, d.b[d.i], want)
}

func (d *scoreDecoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// expect consumes c after optional whitespace.
func (d *scoreDecoder) expect(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	d.syntax("'" + string(c) + "'")
	return false
}

// more is called after an element of an object or array: it consumes ','
// (true: another element follows) or the closing bracket (false).
func (d *scoreDecoder) more(closer byte) bool {
	d.ws()
	if d.i < len(d.b) {
		switch d.b[d.i] {
		case ',':
			d.i++
			return true
		case closer:
			d.i++
			return false
		}
	}
	d.syntax("',' or '" + string(closer) + "'")
	return false
}

// open consumes an opening bracket and reports whether elements follow:
// false for "{}" and "[]", and on error.
func (d *scoreDecoder) open(opener, closer byte) bool {
	if !d.expect(opener) {
		return false
	}
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == closer {
		d.i++
		return false
	}
	return true
}

// null consumes a null literal if one is next. encoding/json leaves a field
// whose value is null untouched, so for the known keys null means absent.
func (d *scoreDecoder) null() bool {
	d.ws()
	if bytes.HasPrefix(d.b[d.i:], []byte("null")) {
		d.i += 4
		return true
	}
	return false
}

// object parses one object's known keys — the event fields into ev, the
// request's idx-th event, and where allowed has them "events" and "tenant" —
// and skips the values of all others.
func (d *scoreDecoder) object(ev *tgraph.Event, idx int, allowed uint) {
	if !d.open('{', '}') {
		return
	}
	var seen uint
	for {
		k := d.key(&seen, allowed)
		switch {
		case d.err != nil:
			return
		case k == 0:
			d.skip(0)
		case d.null():
		case k == keySrc:
			ev.Src = d.int32()
		case k == keyDst:
			ev.Dst = d.int32()
		case k == keyTime:
			ev.Time = d.float(64)
		case k == keyFeat:
			ev.Feat = d.feat(idx)
		case k == keyEvents:
			d.batch = true
			d.array()
		case k == keyTenant:
			d.tenant = d.str()
		}
		if d.err != nil || !d.more('}') {
			return
		}
	}
}

// array parses the "events" array.
func (d *scoreDecoder) array() {
	if !d.open('[', ']') {
		return
	}
	for {
		if len(d.events) == maxBatchEvents {
			d.fail("batch_too_large", "more than %d events in one request", maxBatchEvents)
			return
		}
		d.events = append(d.events, tgraph.Event{Label: -1})
		d.object(&d.events[len(d.events)-1], len(d.events)-1, eventKeys)
		if d.err != nil || !d.more(']') {
			return
		}
	}
}

// feat parses one feature array onto the arena. It stops at the first
// element beyond the model's edge dimension, so no body can make the arena
// outgrow events × dim.
func (d *scoreDecoder) feat(event int) []float32 {
	start := len(d.arena)
	if !d.open('[', ']') {
		return d.arena[start:start:start]
	}
	for {
		if len(d.arena)-start == d.dim {
			d.fail("bad_feat_dim", "event %d: feat has more than %d values", event, d.dim)
			return nil
		}
		d.arena = append(d.arena, float32(d.float(32)))
		if d.err != nil {
			return nil
		}
		if !d.more(']') {
			break
		}
	}
	end := len(d.arena)
	return d.arena[start:end:end]
}

// number returns the JSON number token at the cursor. Everything strconv
// would accept beyond the JSON grammar — NaN, Infinity, hex floats, a
// leading '+' or '.', a trailing '.', digit separators — stops here, or at
// the delimiter check that follows every value.
func (d *scoreDecoder) number() []byte {
	d.ws()
	s := d.b[d.i:]
	n := 0
	if n < len(s) && s[n] == '-' {
		n++
	}
	switch {
	case n < len(s) && s[n] == '0':
		n++
	case n < len(s) && '1' <= s[n] && s[n] <= '9':
		n = digits(s, n)
	default:
		return d.notNumber(n, "a number")
	}
	if n < len(s) && s[n] == '.' {
		frac := n + 1
		if n = digits(s, frac); n == frac {
			return d.notNumber(n, "a digit after '.'")
		}
	}
	if n < len(s) && (s[n] == 'e' || s[n] == 'E') {
		n++
		if n < len(s) && (s[n] == '+' || s[n] == '-') {
			n++
		}
		exp := n
		if n = digits(s, exp); n == exp {
			return d.notNumber(n, "a digit in the exponent")
		}
	}
	d.i += n
	return s[:n]
}

// notNumber fails at the byte n past the cursor.
func (d *scoreDecoder) notNumber(n int, want string) []byte {
	d.i += n
	d.syntax(want)
	return nil
}

// digits returns the end of the run of decimal digits starting at s[i].
func digits(s []byte, i int) int {
	for i < len(s) && s[i]-'0' <= 9 {
		i++
	}
	return i
}

// float parses a number as encoding/json does for a field of that width:
// strconv.ParseFloat at bitSize, out of range (±Inf) refused. The string
// conversion does not allocate for tokens up to 32 bytes: strconv does not
// retain its argument.
func (d *scoreDecoder) float(bitSize int) float64 {
	tok := d.number()
	if tok == nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), bitSize)
	if err != nil {
		d.fail("bad_json", "offset %d: number %s does not fit a float%d", d.i-len(tok), tok, bitSize)
	}
	return f
}

func (d *scoreDecoder) int32() int32 {
	tok := d.number()
	if tok == nil {
		return 0
	}
	n, err := strconv.ParseInt(string(tok), 10, 32)
	if err != nil {
		d.fail("bad_json", "offset %d: node id %s is not a 32-bit integer", d.i-len(tok), tok)
	}
	return int32(n)
}

// rawString scans the string literal at the cursor and returns its bytes
// between the quotes, still escaped, and whether it holds a backslash. It
// enforces what encoding/json's scanner does: no raw control characters,
// only the JSON escapes, four hex digits after \u.
func (d *scoreDecoder) rawString() (raw []byte, escaped, ok bool) {
	if !d.expect('"') {
		return nil, false, false
	}
	b, start := d.b, d.i
	for i := start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			d.i = i + 1
			return b[start:i], escaped, true
		case c < 0x20:
			d.i = i
			d.fail("bad_json", "offset %d: control character in string", i)
			return nil, false, false
		case c == '\\':
			escaped = true
			i++
			if i >= len(b) {
				break
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(b) || hex4(b[i+1:]) < 0 {
					d.i = i
					d.fail("bad_json", "offset %d: \\u needs four hex digits", i)
					return nil, false, false
				}
				i += 4
			default:
				d.i = i
				d.fail("bad_json", "offset %d: invalid escape \\%c", i, b[i])
				return nil, false, false
			}
		}
	}
	d.i = len(b)
	d.syntax("'\"'")
	return nil, false, false
}

// hex4 decodes four hex digits, or returns -1.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unquote resolves the escapes of a string rawString accepted, with
// encoding/json's substitutions: invalid UTF-8 and unpaired surrogates
// become U+FFFD.
func unquote(raw []byte) string {
	out := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			i++
			switch e := raw[i]; e {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(raw[i+1:])
				i += 4
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+6 < len(raw) && raw[i+1] == '\\' && raw[i+2] == 'u' {
						r2 = hex4(raw[i+3:])
					}
					if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
						i += 6
					}
				}
				out = utf8.AppendRune(out, r)
			default: // '"', '\\', '/'
				out = append(out, e)
			}
			i++
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, n := utf8.DecodeRune(raw[i:])
			out = utf8.AppendRune(out, r)
			i += n
		}
	}
	return string(out)
}

// str parses a string value (the "tenant" field).
func (d *scoreDecoder) str() string {
	raw, escaped, ok := d.rawString()
	switch {
	case !ok:
		return ""
	case escaped || !utf8.Valid(raw):
		return unquote(raw)
	}
	return string(raw)
}

// key parses `"name":` and returns the key's bit, or 0 for a key outside
// allowed, whose value the caller skips. Like encoding/json it matches the
// known names without regard to case (Go clients marshal untagged structs);
// unlike it, a key that repeats within one object is refused, not
// overwritten.
func (d *scoreDecoder) key(seen *uint, allowed uint) uint {
	at := d.i
	raw, escaped, ok := d.rawString()
	if !ok || !d.expect(':') {
		return 0
	}
	var k uint
	switch string(raw) {
	case "src":
		k = keySrc
	case "dst":
		k = keyDst
	case "time":
		k = keyTime
	case "feat":
		k = keyFeat
	case "events":
		k = keyEvents
	case "tenant":
		k = keyTenant
	default:
		name := raw
		if escaped {
			name = []byte(unquote(raw))
		}
		for bit, known := range [...]string{"src", "dst", "time", "feat", "events", "tenant"} {
			if bytes.EqualFold(name, []byte(known)) {
				k = 1 << bit
			}
		}
	}
	if k&allowed == 0 {
		return 0
	}
	if *seen&k != 0 {
		d.fail("bad_json", "offset %d: duplicate key %s", at, raw)
	}
	*seen |= k
	return k
}

// skip validates and discards one value of any type (an unknown key's).
func (d *scoreDecoder) skip(depth int) {
	if depth > maxSkipDepth {
		d.fail("bad_json", "offset %d: value nested deeper than %d", d.i, maxSkipDepth)
		return
	}
	d.ws()
	if d.i >= len(d.b) {
		d.syntax("a value")
		return
	}
	switch c := d.b[d.i]; {
	case c == '{':
		if !d.open('{', '}') {
			return
		}
		for {
			if _, _, ok := d.rawString(); !ok || !d.expect(':') {
				return
			}
			d.skip(depth + 1)
			if d.err != nil || !d.more('}') {
				return
			}
		}
	case c == '[':
		if !d.open('[', ']') {
			return
		}
		for {
			d.skip(depth + 1)
			if d.err != nil || !d.more(']') {
				return
			}
		}
	case c == '"':
		d.rawString()
	case c == '-' || '0' <= c && c <= '9':
		d.number()
	default:
		for _, lit := range []string{"true", "false", "null"} {
			if bytes.HasPrefix(d.b[d.i:], []byte(lit)) {
				d.i += len(lit)
				return
			}
		}
		d.syntax("a value")
	}
}
