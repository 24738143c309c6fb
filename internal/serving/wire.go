package serving

// This file holds the predict wire format: a one-pass streaming decoder
// from a KServe V1 body ({"instances": [...]}) straight into each
// instance's []float32, and a direct encoder for {"predictions": [...]}.
//
// The decoder accepts and rejects exactly what encoding/json's
// Decoder.Decode into struct{Instances []json.RawMessage}, followed by
// json.Unmarshal and ParseInstance per element, accepts and rejects:
//   - the "instances" key matches as bytes.EqualFold after unescaping;
//   - a repeated "instances" key replaces the earlier value;
//   - other keys are skipped but must hold valid JSON;
//   - "instances": null, a top-level null, or [] mean no instances;
//   - bytes after the top-level object are never read;
//   - every number becomes float32(strconv.ParseFloat(tok, 64)), and a
//     number out of float64 range is an error;
//   - the shape comes from each instance's first-element chain and every
//     other array must match it (inferShape/flattenInto);
//   - nesting deeper than 10000 arrays and objects is an error.
// All nesting is walked with explicit stacks, so a body of 64 MiB of '['
// costs one error, not the goroutine stack.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
)

const (
	// maxNestingDepth matches encoding/json's bound on open arrays and
	// objects in one value.
	maxNestingDepth = 10000
	// windowSize is the read window; it grows only to hold one token
	// longer than itself.
	windowSize = 32 << 10
	// maxPooledFloats caps the value scratch a pooled decoder keeps
	// between requests (4 MiB).
	maxPooledFloats = 1 << 20
	// maxKeyBytes bounds the unescaped key bytes kept for the
	// "instances" match. Only 's' has a multi-byte fold (U+017F, two
	// bytes), so a matching key is at most 11 bytes; a longer one is
	// only tracked as too long.
	maxKeyBytes = 32
)

var errNoInstances = errors.New("no instances in request")

// syntaxError is a body that is not valid JSON, or not a JSON object
// with an "instances" array.
type syntaxError struct{ msg string }

func (e *syntaxError) Error() string { return "malformed request body: " + e.msg }

// predictDecoder is the state of one streaming decode. Decoders are
// pooled: the window and the scratch slices survive between requests.
type predictDecoder struct {
	r        io.Reader
	buf      []byte // window: unread bytes are buf[pos:end]
	pos, end int
	rerr     error // read error, reported once the window runs dry
	depth    int   // open arrays and objects

	vals   []float32 // values of the instance being decoded
	dims   []int     // per-depth length fixed by the first array; -1 until it closes
	counts []int     // per-depth element count of the open arrays of an instance
	stack  []byte    // open '{' and '[' of a value being skipped
	key    []byte    // unescaped key, up to maxKeyBytes
}

var decoderPool = sync.Pool{New: func() any {
	return &predictDecoder{buf: make([]byte, windowSize), key: make([]byte, 0, maxKeyBytes)}
}}

// decodeInstances reads a predict body from r in one streaming pass and
// returns its instances. It never reads past the top-level object.
func decodeInstances(r io.Reader) ([]Instance, error) {
	d := decoderPool.Get().(*predictDecoder)
	insts, err := d.decode(r)
	decoderPool.Put(d)
	return insts, err
}

// decode runs one decode from a clean state, then trims the scratch the
// decoder keeps for the next one.
func (d *predictDecoder) decode(r io.Reader) ([]Instance, error) {
	d.r, d.pos, d.end, d.rerr, d.depth = r, 0, 0, nil, 0
	d.stack = d.stack[:0] // an error can leave a skipped value's openers behind
	insts, err := d.body()
	d.r, d.rerr = nil, nil
	if len(d.buf) > windowSize {
		d.buf = make([]byte, windowSize)
	}
	if cap(d.vals) > maxPooledFloats {
		d.vals = nil
	}
	return insts, err
}

// body decodes the top-level value.
func (d *predictDecoder) body() ([]Instance, error) {
	c, err := d.skipSpace()
	if err != nil {
		return nil, err
	}
	switch c {
	case '{':
	case 'n':
		if err := d.literal("null"); err != nil {
			return nil, err
		}
		return nil, errNoInstances
	default:
		return nil, d.syntax("top-level value is not an object")
	}
	if err := d.open(); err != nil {
		return nil, err
	}
	var insts []Instance
	var bad error // shape or value error in the current "instances"
	if c, err = d.skipSpace(); err != nil {
		return nil, err
	}
	if c == '}' {
		return nil, errNoInstances
	}
	for {
		match, err := d.objectKey(true)
		if err != nil {
			return nil, err
		}
		if match {
			insts, bad, err = d.instances()
		} else {
			err = d.skipValue()
		}
		if err != nil {
			return nil, err
		}
		if c, err = d.skipSpace(); err != nil {
			return nil, err
		}
		d.pos++
		if c == '}' {
			break
		}
		if c != ',' {
			return nil, d.syntaxAt(c, "after object key:value pair")
		}
	}
	if bad != nil {
		return nil, bad
	}
	if len(insts) == 0 {
		return nil, errNoInstances
	}
	return insts, nil
}

// instances decodes the value of an "instances" key: null or an array of
// instances. bad is the first shape or value error among the elements;
// the remaining elements are then only checked for syntax.
func (d *predictDecoder) instances() (insts []Instance, bad, err error) {
	c, err := d.skipSpace()
	if err != nil {
		return nil, nil, err
	}
	switch c {
	case 'n':
		return nil, nil, d.literal("null")
	case '[':
	default:
		return nil, nil, d.syntax("instances is not an array")
	}
	if err := d.open(); err != nil {
		return nil, nil, err
	}
	if c, err = d.skipSpace(); err != nil {
		return nil, nil, err
	}
	if c == ']' {
		d.close()
		return nil, nil, nil
	}
	for {
		if bad == nil {
			var inst Instance
			inst, bad, err = d.instance()
			if bad == nil {
				if len(insts) == cap(insts) {
					// Double: append's 1.25x growth for long slices
					// allocates 5x the final size over a body of many
					// tiny instances.
					insts = slices.Grow(insts, len(insts)+1)
				}
				insts = append(insts, inst)
			}
		} else {
			err = d.skipValue()
		}
		if err != nil {
			return nil, nil, err
		}
		if c, err = d.skipSpace(); err != nil {
			return nil, nil, err
		}
		d.pos++
		if c == ']' {
			d.depth--
			if bad != nil {
				return nil, bad, nil
			}
			return insts, nil, nil
		}
		if c != ',' {
			return nil, nil, d.syntaxAt(c, "after array element")
		}
	}
}

// instance decodes one instance, enforcing ParseInstance's shape rules
// as the values stream past: the first-element chain fixes the rank, the
// first array to close at each depth fixes that dimension, and every
// later array at that depth must match it. A violation is returned as
// bad and the rest of the instance is only checked for syntax; err is a
// syntax or read error.
func (d *predictDecoder) instance() (inst Instance, bad, err error) {
	d.vals, d.dims, d.counts = d.vals[:0], d.dims[:0], d.counts[:0]
	rank := -1 // unknown until the first number or empty array
	for {
		// A value at depth k = len(d.counts).
		c, err := d.skipSpace()
		if err != nil {
			return inst, nil, err
		}
		k := len(d.counts)
		switch {
		case c == '[':
			if bad == nil && rank >= 0 && k == rank {
				bad = errors.New("serving: ragged instance: expected number, got array")
			}
			if err := d.open(); err != nil {
				return inst, nil, err
			}
			if bad == nil && rank < 0 {
				d.dims = append(d.dims, -1)
			}
			d.counts = append(d.counts, 0)
			if c, err = d.skipSpace(); err != nil {
				return inst, nil, err
			}
			if c != ']' {
				d.counts[k] = 1
				continue
			}
			// An empty array on the first-element chain ends it.
			if bad == nil && rank < 0 {
				rank = k + 1
			}
		case c == '-' || '0' <= c && c <= '9':
			f, inRange, err := d.number()
			switch {
			case err != nil:
				return inst, nil, err
			case bad != nil:
			case !inRange:
				bad = errors.New("serving: instance holds a number beyond float64 range")
			case rank >= 0 && k < rank:
				bad = fmt.Errorf("serving: ragged instance: expected array of %d, got number", d.dims[k])
			default:
				if rank < 0 {
					rank = k
				}
				d.vals = append(d.vals, float32(f))
			}
		default:
			if bad == nil {
				switch {
				case rank < 0:
					bad = fmt.Errorf("serving: instance element %s is not a number or array", kindName(c))
				case k == rank:
					bad = fmt.Errorf("serving: ragged instance: expected number, got %s", kindName(c))
				default:
					bad = fmt.Errorf("serving: ragged instance: expected array of %d, got %s", d.dims[k], kindName(c))
				}
			}
			if err := d.skipValue(); err != nil {
				return inst, nil, err
			}
		}
		// Close arrays until the next element or the end of the instance.
		for {
			top := len(d.counts) - 1
			if top < 0 {
				if bad != nil {
					return inst, bad, nil
				}
				return d.take(rank), nil, nil
			}
			if c, err = d.skipSpace(); err != nil {
				return inst, nil, err
			}
			if d.pos++; c == ',' {
				d.counts[top]++
				break
			}
			if c != ']' {
				return inst, nil, d.syntaxAt(c, "after array element")
			}
			d.depth--
			if bad == nil {
				if n := d.counts[top]; d.dims[top] < 0 {
					d.dims[top] = n
				} else if n != d.dims[top] {
					bad = fmt.Errorf("serving: ragged instance: expected array of %d, got array of %d", d.dims[top], n)
				}
			}
			d.counts = d.counts[:top]
		}
	}
}

// take copies the decoded instance out of the scratch slices.
func (d *predictDecoder) take(rank int) Instance {
	inst := Instance{Values: make([]float32, len(d.vals))}
	copy(inst.Values, d.vals)
	if rank > 0 {
		inst.Shape = append([]int(nil), d.dims[:rank]...)
	}
	return inst
}

// kindName names a JSON value by its first byte the way ParseInstance
// names the decoded Go type.
func kindName(c byte) string {
	switch c {
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	case 'n':
		return "<nil>"
	case '{':
		return "map[string]interface {}"
	}
	return "value"
}

// skipValue checks the syntax of one JSON value and discards it.
func (d *predictDecoder) skipValue() error {
	base := len(d.stack)
	for {
		c, err := d.skipSpace()
		if err != nil {
			return err
		}
		switch {
		case c == '{' || c == '[':
			if err := d.open(); err != nil {
				return err
			}
			d.stack = append(d.stack, c)
			next, err := d.skipSpace()
			if err != nil {
				return err
			}
			if next == c+2 { // '{'+2 is '}' and '['+2 is ']'
				d.close()
				d.stack = d.stack[:len(d.stack)-1]
				break
			}
			if c == '{' {
				if _, err := d.objectKey(false); err != nil {
					return err
				}
			}
			continue
		case c == '"':
			if err := d.str(false); err != nil {
				return err
			}
		case c == 't':
			err = d.literal("true")
		case c == 'f':
			err = d.literal("false")
		case c == 'n':
			err = d.literal("null")
		case c == '-' || '0' <= c && c <= '9':
			_, _, err = d.number()
		default:
			return d.syntaxAt(c, "looking for beginning of value")
		}
		if err != nil {
			return err
		}
		// Close containers until the next element or the end.
		for {
			top := len(d.stack) - 1
			if top < base {
				return nil
			}
			if c, err = d.skipSpace(); err != nil {
				return err
			}
			opener := d.stack[top]
			if d.pos++; c == ',' {
				if opener == '{' {
					if _, err := d.objectKey(false); err != nil {
						return err
					}
				}
				break
			}
			if c != opener+2 {
				return d.syntaxAt(c, "after container element")
			}
			d.depth--
			d.stack = d.stack[:top]
		}
	}
}

// objectKey reads `"key" :` and reports whether the key matches
// "instances" (only when match is set).
func (d *predictDecoder) objectKey(match bool) (bool, error) {
	c, err := d.skipSpace()
	if err != nil {
		return false, err
	}
	if c != '"' {
		return false, d.syntaxAt(c, "looking for beginning of object key string")
	}
	d.key = d.key[:0]
	if err := d.str(match); err != nil {
		return false, err
	}
	if c, err = d.skipSpace(); err != nil {
		return false, err
	}
	if c != ':' {
		return false, d.syntaxAt(c, "after object key")
	}
	d.pos++
	return match && len(d.key) <= maxKeyBytes && bytes.EqualFold(d.key, []byte("instances")), nil
}

// str checks one string at d.pos. With keep, its unescaped bytes go to
// d.key until they pass maxKeyBytes (then the key cannot match, and
// len(d.key) records that by exceeding the bound).
func (d *predictDecoder) str(keep bool) error {
	d.pos++ // opening quote
	for {
		for d.pos < d.end {
			c := d.buf[d.pos]
			if c == '"' || c == '\\' || c < 0x20 {
				break
			}
			if keep && len(d.key) <= maxKeyBytes {
				d.key = append(d.key, c)
			}
			d.pos++
		}
		if d.pos == d.end {
			if !d.fill() {
				return d.eof()
			}
			continue
		}
		c := d.buf[d.pos]
		d.pos++
		switch {
		case c == '"':
			return nil
		case c < 0x20:
			return d.syntaxAt(c, "in string literal")
		}
		// An escape.
		e, err := d.next()
		if err != nil {
			return err
		}
		var r rune
		switch e {
		case '"', '\\', '/':
			r = rune(e)
		case 'b':
			r = '\b'
		case 'f':
			r = '\f'
		case 'n':
			r = '\n'
		case 'r':
			r = '\r'
		case 't':
			r = '\t'
		case 'u':
			for i := 0; i < 4; i++ {
				h, err := d.next()
				if err != nil {
					return err
				}
				switch {
				case '0' <= h && h <= '9':
					h -= '0'
				case 'a' <= h && h <= 'f':
					h -= 'a' - 10
				case 'A' <= h && h <= 'F':
					h -= 'A' - 10
				default:
					return d.syntaxAt(h, "in \\u hexadecimal character escape")
				}
				r = r<<4 | rune(h)
			}
			// encoding/json joins a surrogate pair into a rune outside
			// the BMP; AppendRune below writes U+FFFD for each half
			// instead. Neither folds to ASCII, so the key stays
			// unmatched either way.
		default:
			return d.syntaxAt(e, "in string escape code")
		}
		if keep && len(d.key) <= maxKeyBytes {
			d.key = utf8.AppendRune(d.key, r)
		}
	}
}

// number parses the number at d.pos. inRange is false for a valid
// number beyond float64's range, which ParseFloat rejects.
func (d *predictDecoder) number() (f float64, inRange bool, err error) {
	// Find the end of the token before parsing it. A refill keeps the
	// token's bytes, so the scan resumes where it stopped and every byte
	// is looked at once, however finely the body is split into reads.
	n := 0
	for {
		for d.pos+n < d.end && isNumberByte(d.buf[d.pos+n]) {
			n++
		}
		if d.pos+n < d.end || !d.fill() {
			break
		}
	}
	n, f, st := parseNumber(d.buf[d.pos:d.end])
	if st == numBad {
		if d.pos+n < d.end {
			return 0, false, d.syntaxAt(d.buf[d.pos+n], "in numeric literal")
		}
		return 0, false, d.eof()
	}
	d.pos += n
	return f, st == numOK, nil
}

// isNumberByte reports whether c can appear in a JSON number.
func isNumberByte(c byte) bool {
	return '0' <= c && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}

type numStatus uint8

const (
	numOK    numStatus = iota
	numRange           // a valid number beyond float64's range
	numBad             // not a JSON number
)

// parseNumber checks the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? at the start of b, whose
// end is the end of the input, and returns the token's length and
// strconv.ParseFloat(token, 64). The grammar check comes first because
// ParseFloat also takes forms JSON does not, such as ".5", "+1", "inf"
// and hex.
func parseNumber(b []byte) (int, float64, numStatus) {
	digits := func(i int) int {
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i
	}
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(i)
	default:
		return i, 0, numBad
	}
	if i < len(b) && b[i] == '.' {
		j := digits(i + 1)
		if j == i+1 {
			return j, 0, numBad
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(i)
		if j == i {
			return j, 0, numBad
		}
		i = j
	}
	f, err := strconv.ParseFloat(string(b[:i]), 64)
	if err != nil {
		return i, 0, numRange
	}
	return i, f, numOK
}

// literal consumes the exact bytes of true, false or null.
func (d *predictDecoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		c, err := d.next()
		if err != nil {
			return err
		}
		if c != word[i] {
			return d.syntaxAt(c, "in literal "+word)
		}
	}
	return nil
}

// open consumes a '[' or '{' and enforces the nesting bound.
func (d *predictDecoder) open() error {
	d.pos++
	if d.depth++; d.depth > maxNestingDepth {
		return d.syntax("exceeded max depth")
	}
	return nil
}

// close consumes a ']' or '}'.
func (d *predictDecoder) close() {
	d.pos++
	d.depth--
}

// skipSpace returns, without consuming it, the next byte that is not
// JSON whitespace.
func (d *predictDecoder) skipSpace() (byte, error) {
	for {
		for d.pos < d.end {
			c := d.buf[d.pos]
			if c != ' ' && c != '\n' && c != '\r' && c != '\t' {
				return c, nil
			}
			d.pos++
		}
		if !d.fill() {
			return 0, d.eof()
		}
	}
}

// next consumes and returns one byte.
func (d *predictDecoder) next() (byte, error) {
	if d.pos == d.end && !d.fill() {
		return 0, d.eof()
	}
	c := d.buf[d.pos]
	d.pos++
	return c, nil
}

// fill slides the unread bytes to the front of the window and reads
// more, growing the window only when one token fills it. Only a number
// token keeps its bytes across a refill, and once at the front they stay
// put, so a long token costs one slide and the doublings. It reports
// whether any byte arrived; a read error is kept for eof.
func (d *predictDecoder) fill() bool {
	if d.rerr != nil {
		return false
	}
	if d.pos > 0 {
		d.end = copy(d.buf, d.buf[d.pos:d.end])
		d.pos = 0
	}
	if d.end == len(d.buf) {
		d.buf = slices.Grow(d.buf, len(d.buf))[:2*len(d.buf)]
	}
	for {
		n, err := d.r.Read(d.buf[d.end:])
		d.end += n
		if err != nil {
			d.rerr = err
		}
		if n > 0 || err != nil {
			return n > 0
		}
	}
}

// eof is the error for a body that ended (or failed) mid-value.
func (d *predictDecoder) eof() error {
	if d.rerr == io.EOF {
		return d.syntax("unexpected end of JSON input")
	}
	return &syntaxError{msg: d.rerr.Error()}
}

func (d *predictDecoder) syntax(msg string) error { return &syntaxError{msg: msg} }

func (d *predictDecoder) syntaxAt(c byte, where string) error {
	return &syntaxError{msg: fmt.Sprintf("invalid character %q %s", c, where)}
}

// writePredictions answers a predict with {"predictions": [...]},
// byte-identical to json.Encoder's output for
// map[string]any{"predictions": [out.Render()...]}. The body is built
// before any header is written, so an output JSON cannot carry (NaN,
// ±Inf, fewer values than its shape) turns into a 500, not a 200 with
// an empty body.
func writePredictions(w http.ResponseWriter, outs []Instance) {
	n := 0
	for _, out := range outs {
		n += len(out.Values)
	}
	body, err := appendPredictions(make([]byte, 0, 32+16*n), outs)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	//lint:ignore operr the status line is out; a failed write means the client went away and has no recovery
	_, _ = w.Write(body)
}

// appendPredictions appends the predict response body for outs.
func appendPredictions(b []byte, outs []Instance) ([]byte, error) {
	b = append(b, `{"predictions":[`...)
	for i, out := range outs {
		if len(out.Values) < out.numElements() {
			return nil, fmt.Errorf("serving: prediction holds %d values for shape %v", len(out.Values), out.Shape)
		}
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, _, err = appendNested(b, out.Values, out.Shape); err != nil {
			return nil, err
		}
	}
	return append(b, "]}\n"...), nil
}

// appendNested encodes values as nested arrays of shape, the way Render
// nests them, and returns the values left over.
func appendNested(b []byte, values []float32, shape []int) ([]byte, []float32, error) {
	if len(shape) == 0 {
		b, err := appendFloat32(b, values[0])
		return b, values[1:], err
	}
	b = append(b, '[')
	for i := 0; i < shape[0]; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, values, err = appendNested(b, values, shape[1:]); err != nil {
			return nil, nil, err
		}
	}
	return append(b, ']'), values, nil
}

// appendFloat32 formats v exactly as encoding/json formats a float32:
// ES6 number-to-string, 'e' notation below 1e-6 and from 1e21, with the
// exponent's leading zero dropped.
func appendFloat32(b []byte, v float32) ([]byte, error) {
	f := float64(v)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, fmt.Errorf("serving: prediction value %v is not finite", v)
	}
	format := byte('f')
	if abs := float32(math.Abs(f)); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 32)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}
