package graphio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// maxDepth bounds the nesting of the unknown values the decoder skips,
// so hostile input cannot drive the recursion arbitrarily deep
// (encoding/json allows 10000 levels; every document it writes has 3).
const maxDepth = 512

// Field names of the wire form, in the order Document declares them.
var (
	documentFields = []string{"nodes", "coords", "labels", "edges", "pairs", "failure_threshold", "budget"}
	edgeFields     = []string{"u", "v", "p_fail"}
)

// decoder reads one Document in a single pass over a bufio.Reader, with
// no reflection and no copy of the input: it scans the reader's buffered
// window in place and keeps only the current token when one straddles two
// windows. It accepts a subset of what encoding/json accepts into a
// Document, and wherever it accepts, it builds the Document encoding/json
// would: keys match struct fields exactly or case-insensitively, the last
// of a repeated key wins (arrays merge element-wise into the slots the
// earlier occurrence filled, as encoding/json's in-place decode does),
// null leaves a number unchanged and clears a slice, and unknown keys are
// skipped. Numbers follow the RFC 8259 grammar strictly; integers must fit
// their field without a fraction or exponent.
type decoder struct {
	br   *bufio.Reader
	buf  []byte // the window: br's buffered bytes, consumed up to pos
	pos  int
	off  int64  // input offset of buf[0]
	rerr error  // the read error, other than io.EOF, that ended the input
	key  []byte // the last object key, unescaped
	lit  []byte // a token that straddles two windows, or a string with escapes
}

func newDecoder(r io.Reader) *decoder {
	return &decoder{br: bufio.NewReaderSize(r, 64<<10)}
}

// fill moves the window past the consumed bytes once they are all
// consumed, and reports whether an unread byte is left.
func (d *decoder) fill() bool {
	if d.pos < len(d.buf) {
		return true
	}
	d.br.Discard(d.pos) // never fails: the bytes are buffered
	d.off += int64(d.pos)
	d.buf, d.pos = nil, 0
	if _, err := d.br.Peek(1); err != nil {
		if err != io.EOF && d.rerr == nil {
			d.rerr = err
		}
		return false
	}
	d.buf, _ = d.br.Peek(d.br.Buffered())
	return true
}

// errorf reports a malformed document at the current offset, or the read
// error that cut the input short.
func (d *decoder) errorf(format string, args ...any) error {
	if d.rerr != nil {
		return jsonErr("document", "read: %v", d.rerr)
	}
	return jsonErr("document", "offset %d: %s", d.off+int64(d.pos), fmt.Sprintf(format, args...))
}

// next skips whitespace and returns the next byte without consuming it;
// ok is false at the end of the input.
func (d *decoder) next() (c byte, ok bool) {
	for d.fill() {
		buf, i := d.buf, d.pos
		for ; i < len(buf); i++ {
			if c := buf[i]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
				d.pos = i
				return c, true
			}
		}
		d.pos = i
	}
	return 0, false
}

func (d *decoder) unexpected(want string) error {
	c, ok := d.next()
	if !ok {
		return d.errorf("unexpected end of input, want %s", want)
	}
	return d.errorf("unexpected %q, want %s", c, want)
}

func (d *decoder) expect(c byte, want string) error {
	if got, ok := d.next(); !ok || got != c {
		return d.unexpected(want)
	}
	d.pos++
	return nil
}

func (d *decoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if !d.fill() || d.buf[d.pos] != word[i] {
			return d.errorf("malformed literal, want %s", word)
		}
		d.pos++
	}
	return nil
}

// null consumes a null literal if one comes next. No other value starts
// with 'n', so a malformed literal is an error, not some other value.
func (d *decoder) null() (bool, error) {
	if c, ok := d.next(); !ok || c != 'n' {
		return false, nil
	}
	return true, d.literal("null")
}

// Byte classes for token: the bytes a number token is made of, and the
// bytes a string holds verbatim (printable ASCII but the quote and the
// backslash).
var numberBytes, plainBytes [256]bool

func init() {
	for _, c := range []byte("0123456789+-.eE") {
		numberBytes[c] = true
	}
	for c := 0x20; c < 0x80; c++ {
		plainBytes[c] = c != '"' && c != '\\'
	}
}

// token consumes the longest run of bytes in class. The result is valid
// until the next read.
func (d *decoder) token(class *[256]bool) []byte {
	d.lit = d.lit[:0]
	for d.fill() {
		buf, start, i := d.buf, d.pos, d.pos
		for i < len(buf) && class[buf[i]] {
			i++
		}
		d.pos = i
		if i < len(buf) {
			if len(d.lit) == 0 {
				return buf[start:i]
			}
			d.lit = append(d.lit, buf[start:i]...)
			return d.lit
		}
		d.lit = append(d.lit, buf[start:]...)
	}
	return d.lit
}

// num is what scanNumber reads off a number token.
type num struct {
	neg     bool
	integer bool   // no fraction and no exponent
	exact   bool   // mant and exp hold the value with no digit dropped
	whole   uint64 // the integer part, or MaxUint64 past 19 digits
	mant    uint64 // the first 19 significant digits, integer and fraction
	exp     int    // the value is ±mant·10^exp when exact
}

// scanNumber checks the longest prefix of b that the RFC 8259 number
// grammar allows, building its mantissa and decimal exponent into *n in
// the same pass, and returns where that prefix ends. ok is false when b
// has no such prefix or it stops short of a digit the grammar requires
// ("-", "1.", "1e+"). Whether the token ends at i is the caller's to
// check: a number byte at b[i] makes it malformed ("05", "1-2"), and
// i = len(b) may be a window cutting the token. It fills *n rather than
// returning a num: copying the returned struct reloaded its bool bytes as
// one wide word, a store-forwarding stall on every number.
func scanNumber(b []byte, n *num) (i int, ok bool) {
	*n = num{}
	if i < len(b) && b[i] == '-' {
		n.neg = true
		i++
	}
	var mant uint64
	digits, exp := 0, 0 // significant digits seen; the exponent of mant
	capped := false     // the exponent dropped digits
	switch {
	case i == len(b):
		return i, false
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		for ; i < len(b); i++ {
			c := b[i] - '0'
			if c > 9 {
				break
			}
			if digits < 19 {
				mant = mant*10 + uint64(c)
			}
			digits++
		}
	default:
		return i, false
	}
	n.whole, n.integer = mant, true
	if digits > 19 {
		n.whole = math.MaxUint64
	}
	if i < len(b) && b[i] == '.' {
		i++
		start := i
		for ; i < len(b); i++ {
			c := b[i] - '0'
			if c > 9 {
				break
			}
			switch {
			case digits == 0 && c == 0:
				exp-- // a leading zero of the fraction
			case digits < 19:
				mant = mant*10 + uint64(c)
				exp--
				digits++
			default:
				digits++
			}
		}
		if i == start {
			return i, false
		}
		n.integer = false
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		neg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			neg = b[i] == '-'
			i++
		}
		start, e := i, 0
		for ; i < len(b); i++ {
			c := b[i] - '0'
			if c > 9 {
				break
			}
			if e < 1e4 { // far past any exact exponent; saturate, as strconv does
				e = e*10 + int(c)
			} else {
				// Leading zeros of the fraction could bring a saturated
				// exponent back into the exact range: leave it to strconv.
				capped = true
			}
		}
		if i == start {
			return i, false
		}
		if neg {
			e = -e
		}
		exp += e
		n.integer = false
	}
	n.mant, n.exp, n.exact = mant, exp, digits <= 19 && !capped
	return i, true
}

// intValue returns the integer part of n, signed, and whether it fits
// bits bits. A fraction or an exponent is the caller's to reject, after
// overflow, as a digit-by-digit decode meets them in that order.
func (n *num) intValue(bits int) (int64, bool) {
	limit := uint64(1)<<(bits-1) - 1
	if n.neg {
		limit++
	}
	if n.whole > limit {
		return 0, false
	}
	if n.neg {
		return -int64(n.whole), true
	}
	return int64(n.whole), true
}

// pow10 holds the powers of ten float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// exactFloat returns ±mant·10^exp by Clinger's exact path: when mant and
// 10^|exp| are both exact float64s, one correctly rounded multiply or
// divide gives the correctly rounded value, bit for bit what
// strconv.ParseFloat returns. ok is false when the path does not apply.
func (n *num) exactFloat() (float64, bool) {
	if !n.exact || n.mant > 1<<53 || n.exp < -22 || n.exp > 22 {
		return 0, false
	}
	f := float64(n.mant)
	if n.exp < 0 {
		f /= pow10[-n.exp]
	} else {
		f *= pow10[n.exp]
	}
	if n.neg {
		f = -f
	}
	return f, true
}

// float returns the float64 of tok, which scanNumber read into n: by the
// exact path when it applies, else by strconv.ParseFloat. ok is false when
// the value overflows float64.
func (n *num) float(tok []byte) (float64, bool) {
	if f, ok := n.exactFloat(); ok {
		return f, true
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

// number consumes a number and checks it against the RFC 8259 grammar,
// which strconv alone does not enforce (it takes "+1", ".5", "Inf",
// "0x1p3"). It returns the token, valid until the next read, and what
// scanNumber read off it. A token that ends inside the window is scanned
// in place; one the window cuts, or a malformed one, is first joined in
// d.lit and then scanned whole.
func (d *decoder) number(what string) ([]byte, num, error) {
	if c, ok := d.next(); !ok || c != '-' && (c < '0' || c > '9') {
		return nil, num{}, d.unexpected("a number for " + what)
	}
	buf := d.buf[d.pos:]
	var n num
	if i, ok := scanNumber(buf, &n); ok && i < len(buf) && !numberBytes[buf[i]] {
		d.pos += i
		return buf[:i], n, nil
	}
	tok := d.token(&numberBytes)
	i, ok := scanNumber(tok, &n)
	if !ok || i < len(tok) {
		return nil, num{}, d.errorf("%s: malformed number %q", what, tok)
	}
	return tok, n, nil
}

// decodeInt decodes an integer of bits bits into *dst; null leaves *dst
// unchanged. Fractions, exponents and overflow are rejected, as
// encoding/json rejects them for integer fields.
func decodeInt[T int | int32](d *decoder, dst *T, bits int, what string) error {
	if null, err := d.null(); null {
		return err
	}
	tok, n, err := d.number(what)
	if err != nil {
		return err
	}
	v, fits := n.intValue(bits)
	switch {
	case !fits:
		return d.errorf("%s: %s overflows %d bits", what, tok, bits)
	case !n.integer:
		return d.errorf("%s: %s is not an integer", what, tok)
	}
	*dst = T(v)
	return nil
}

// float decodes a float64 into *dst; null leaves *dst unchanged.
func (d *decoder) float(dst *float64, what string) error {
	if null, err := d.null(); null {
		return err
	}
	tok, n, err := d.number(what)
	if err != nil {
		return err
	}
	f, ok := n.float(tok)
	if !ok {
		return d.errorf("%s: %s is out of range", what, tok)
	}
	*dst = f
	return nil
}

// rawString consumes a string whose opening quote is next in line and
// returns the bytes between its quotes, valid until the next read, and
// whether they are printable ASCII with no escapes.
func (d *decoder) rawString() (raw []byte, plain bool, err error) {
	d.pos++
	raw = d.token(&plainBytes)
	if d.fill() && d.buf[d.pos] == '"' {
		d.pos++
		return raw, true, nil
	}
	// An escape, a control or a non-ASCII byte: collect the rest byte by
	// byte, stepping over escaped quotes.
	lit, escaped := append(d.lit[:0], raw...), false
	for d.fill() {
		c := d.buf[d.pos]
		d.pos++
		if c == '"' && !escaped {
			d.lit = lit
			return lit, false, nil
		}
		escaped = c == '\\' && !escaped
		lit = append(lit, c)
	}
	return nil, false, d.errorf("unterminated string")
}

// unquote decodes the raw bytes of a string that holds escapes, control
// or non-ASCII bytes through encoding/json, so that escapes, surrogates
// and invalid UTF-8 come out exactly as encoding/json decodes them.
func (d *decoder) unquote(raw []byte, what string) (string, error) {
	q := make([]byte, 0, len(raw)+2)
	q = append(append(append(q, '"'), raw...), '"')
	var s string
	if err := json.Unmarshal(q, &s); err != nil {
		return "", d.errorf("%s: malformed string: %v", what, err)
	}
	return s, nil
}

// str decodes a string into *dst; null leaves *dst unchanged.
func (d *decoder) str(dst *string, what string) error {
	if null, err := d.null(); null {
		return err
	}
	if c, ok := d.next(); !ok || c != '"' {
		return d.unexpected("a string for " + what)
	}
	raw, plain, err := d.rawString()
	if err != nil {
		return err
	}
	if plain {
		*dst = string(raw)
		return nil
	}
	*dst, err = d.unquote(raw, what)
	return err
}

// field returns the name among names that the last key selects, or "":
// an exact match first, else a case-insensitive one, as encoding/json
// matches struct fields.
func (d *decoder) field(names []string) string {
	for _, n := range names {
		if string(d.key) == n {
			return n
		}
	}
	for _, n := range names {
		if strings.EqualFold(string(d.key), n) {
			return n
		}
	}
	return ""
}

// object consumes an object, calling member with each key in d.key and
// its value next in line.
func (d *decoder) object(what string, member func() error) error {
	if err := d.expect('{', what); err != nil {
		return err
	}
	if c, ok := d.next(); ok && c == '}' {
		d.pos++
		return nil
	}
	for {
		if c, ok := d.next(); !ok || c != '"' {
			return d.unexpected("a key in " + what)
		}
		raw, plain, err := d.rawString()
		if err != nil {
			return err
		}
		if plain {
			d.key = append(d.key[:0], raw...)
		} else {
			s, err := d.unquote(raw, "key")
			if err != nil {
				return err
			}
			d.key = append(d.key[:0], s...)
		}
		if err := d.expect(':', "':' after a key"); err != nil {
			return err
		}
		if err := member(); err != nil {
			return err
		}
		if c, ok := d.next(); ok && (c == ',' || c == '}') {
			d.pos++
			if c == '}' {
				return nil
			}
			continue
		}
		return d.unexpected("',' or '}' in " + what)
	}
}

// array consumes an array, calling elem with each value next in line.
func (d *decoder) array(what string, elem func() error) error {
	if err := d.expect('[', what); err != nil {
		return err
	}
	if c, ok := d.next(); ok && c == ']' {
		d.pos++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if c, ok := d.next(); ok && (c == ',' || c == ']') {
			d.pos++
			if c == ']' {
				return nil
			}
			continue
		}
		return d.unexpected("',' or ']' in " + what)
	}
}

// skip consumes one value of any kind, checking its syntax.
func (d *decoder) skip(depth int) error {
	if depth > maxDepth {
		return d.errorf("values nested deeper than %d", maxDepth)
	}
	c, ok := d.next()
	switch {
	case !ok:
		return d.unexpected("a value")
	case c == '{':
		return d.object("an object", func() error { return d.skip(depth + 1) })
	case c == '[':
		return d.array("an array", func() error { return d.skip(depth + 1) })
	case c == '"':
		var s string
		return d.str(&s, "a skipped value")
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	}
	_, _, err := d.number("a skipped value")
	return err
}

// decodeSlice decodes an array into *dst as encoding/json decodes into a
// slice: null sets nil, [] an empty slice, and otherwise each element is
// decoded in place over *slots, the elements an earlier occurrence of the
// same key left behind, so a repeated key merges exactly as encoding/json
// merges it.
func decodeSlice[T any](d *decoder, dst, slots *[]T, what string, elem func(*T) error) error {
	if null, err := d.null(); null {
		*dst, *slots = nil, nil
		return err
	}
	s, n := *slots, 0
	err := d.array(what, func() error {
		if n == len(s) {
			var zero T
			s = append(s, zero)
		}
		n++
		return elem(&s[n-1])
	})
	switch {
	case err != nil:
		return err
	case n == 0:
		*dst, *slots = []T{}, nil
	default:
		*dst, *slots = s[:n:n], s
	}
	return nil
}

// decodePair decodes an array into a Go [2]T as encoding/json decodes into
// an array: null leaves it unchanged, missing elements are zeroed and
// extra ones skipped.
func decodePair[T any](d *decoder, dst *[2]T, what string, elem func(*T) error) error {
	if null, err := d.null(); null {
		return err
	}
	n := 0
	err := d.array(what, func() error {
		n++
		if n > len(dst) {
			return d.skip(0)
		}
		return elem(&dst[n-1])
	})
	for ; err == nil && n < len(dst); n++ {
		var zero T
		dst[n] = zero
	}
	return err
}

func (d *decoder) edge(e *EdgeRecord) error {
	if null, err := d.null(); null {
		return err
	}
	if d.edgeRecord(e) {
		return nil
	}
	return d.object("an edge", func() error {
		switch d.field(edgeFields) {
		case "u":
			return decodeInt(d, &e.U, 32, "edges.u")
		case "v":
			return decodeInt(d, &e.V, 32, "edges.v")
		case "p_fail":
			return d.float(&e.Fail, "edges.p_fail")
		}
		return d.skip(0)
	})
}

// edgeRecord decodes an edge written exactly as WriteJSONStream writes
// it, {"u":I,"v":I,"p_fail":F}, when the whole record lies in the window,
// and reports whether it did. It consumes and writes nothing unless it
// succeeds, so any other shape, a number d.edge would reject, or a record
// the window cuts goes through the general path from the same byte, with
// that path's result or error. It writes all three fields, as the general
// path does for this shape, so a repeated edges key merges the same way.
func (d *decoder) edgeRecord(e *EdgeRecord) bool {
	b := d.buf[d.pos:]
	if !at(b, 0, `{"u":`) {
		return false
	}
	u, i, ok := int32At(b, len(`{"u":`))
	if !ok || !at(b, i, `,"v":`) {
		return false
	}
	v, i, ok := int32At(b, i+len(`,"v":`))
	if !ok || !at(b, i, `,"p_fail":`) {
		return false
	}
	i += len(`,"p_fail":`)
	var n num
	j, ok := scanNumber(b[i:], &n)
	if !ok || !at(b, i+j, "}") {
		return false
	}
	f, ok := n.float(b[i : i+j])
	if !ok {
		return false
	}
	e.U, e.V, e.Fail = u, v, f
	d.pos += i + j + 1
	return true
}

// at reports whether s is at b[i:].
func at(b []byte, i int, s string) bool {
	return len(b)-i >= len(s) && string(b[i:i+len(s)]) == s
}

// int32At scans the number at b[i:] and returns its value and where it
// ends; ok is false unless it is an integer that fits 32 bits.
func int32At(b []byte, i int) (int32, int, bool) {
	var n num
	j, ok := scanNumber(b[i:], &n)
	v, fits := n.intValue(32)
	return int32(v), i + j, ok && fits && n.integer
}

// document decodes the whole input: one object and nothing after it but
// whitespace.
func (d *decoder) document() (Document, error) {
	var (
		doc    Document
		coords [][2]float64
		labels []string
		edges  []EdgeRecord
		pairs  [][2]int32
	)
	coord := func(c *[2]float64) error {
		return decodePair(d, c, "a coordinate", func(x *float64) error { return d.float(x, "coords") })
	}
	pair := func(p *[2]int32) error {
		return decodePair(d, p, "a pair", func(u *int32) error { return decodeInt(d, u, 32, "pairs") })
	}
	label := func(s *string) error { return d.str(s, "labels") }
	err := d.object("the document object", func() error {
		switch d.field(documentFields) {
		case "nodes":
			return decodeInt(d, &doc.Nodes, strconv.IntSize, "nodes")
		case "coords":
			return decodeSlice(d, &doc.Coords, &coords, "coords", coord)
		case "labels":
			return decodeSlice(d, &doc.Labels, &labels, "labels", label)
		case "edges":
			return decodeSlice(d, &doc.Edges, &edges, "edges", d.edge)
		case "pairs":
			return decodeSlice(d, &doc.Pairs, &pairs, "pairs", pair)
		case "failure_threshold":
			return d.float(&doc.FailureThreshold, "failure_threshold")
		case "budget":
			return decodeInt(d, &doc.Budget, strconv.IntSize, "budget")
		}
		return d.skip(0)
	})
	if err != nil {
		return Document{}, err
	}
	if _, ok := d.next(); ok {
		return Document{}, d.errorf("trailing data after the document")
	}
	if d.rerr != nil {
		return Document{}, jsonErr("document", "read: %v", d.rerr)
	}
	return doc, nil
}
