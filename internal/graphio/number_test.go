package graphio

import (
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"msc/internal/xrand"
)

// jsonNumber is the RFC 8259 number grammar.
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// TestScanNumberGrammar: scanNumber accepts a whole token exactly when the
// RFC 8259 grammar does, on every string of up to five bytes over the
// bytes a number is made of (and one that is not), and on longer random
// ones.
func TestScanNumberGrammar(t *testing.T) {
	const alphabet = "019-+.eEx"
	check := func(tok string) {
		var n num
		i, ok := scanNumber([]byte(tok), &n)
		if got, want := ok && i == len(tok), jsonNumber.MatchString(tok); got != want {
			t.Fatalf("scanNumber(%q) accepts %v, grammar %v", tok, got, want)
		}
	}
	var all func(prefix string, left int)
	all = func(prefix string, left int) {
		check(prefix)
		if left == 0 {
			return
		}
		for j := 0; j < len(alphabet); j++ {
			all(prefix+alphabet[j:j+1], left-1)
		}
	}
	all("", 5)
	rng := xrand.New(7)
	var sb strings.Builder
	for trial := 0; trial < 100000; trial++ {
		sb.Reset()
		for k := 6 + rng.Intn(20); k > 0; k-- {
			if rng.Intn(3) == 0 {
				sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
			} else {
				sb.WriteByte(byte('0' + rng.Intn(10)))
			}
		}
		check(sb.String())
	}
}

// checkNumber holds the kernel to strconv on one token the grammar
// accepts: the float64 strconv.ParseFloat gives, bit for bit, or its range
// error; and an integer part that fits 32 or 64 bits exactly when
// strconv.ParseInt says it does, with ParseInt's value. It reports whether
// the exact path decoded the token.
func checkNumber(t *testing.T, tok string) (exact bool) {
	t.Helper()
	var n num
	i, ok := scanNumber([]byte(tok), &n)
	if !ok || i != len(tok) {
		t.Fatalf("scanNumber(%q) = %d, %v; want the whole token", tok, i, ok)
	}
	want, err := strconv.ParseFloat(tok, 64)
	got, ok := n.float([]byte(tok))
	if ok != (err == nil) || ok && math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("float(%q) = %v, %v; strconv %v, %v", tok, got, ok, want, err)
	}
	if f, ok := n.exactFloat(); ok {
		if err != nil || math.Float64bits(f) != math.Float64bits(want) {
			t.Fatalf("exactFloat(%q) = %v (%#x); strconv %v (%#x), %v",
				tok, f, math.Float64bits(f), want, math.Float64bits(want), err)
		}
		exact = true
	}
	whole := tok
	if j := strings.IndexAny(tok, ".eE"); j >= 0 {
		whole = tok[:j]
	}
	if n.integer != (whole == tok) {
		t.Fatalf("scanNumber(%q).integer = %v", tok, n.integer)
	}
	for _, bits := range []int{32, 64} {
		v, fits := n.intValue(bits)
		w, err := strconv.ParseInt(whole, 10, bits)
		if fits != (err == nil) || fits && v != w {
			t.Fatalf("intValue(%q, %d) = %d, %v; strconv %d, %v", tok, bits, v, fits, w, err)
		}
	}
	return exact
}

// TestScanNumberMatchesStrconv checks the kernel against strconv on more
// than 10⁶ tokens: random float64s as strconv formats them, random digit
// strings with fractions and exponents, mantissas around 2⁵³, and
// subnormal and overflowing values.
func TestScanNumberMatchesStrconv(t *testing.T) {
	rng := xrand.New(5)
	tokens, exact := 0, 0
	check := func(tok string) {
		tokens++
		if checkNumber(t, tok) {
			exact++
		}
	}
	bits := func() uint64 { return uint64(rng.Int63())<<1 ^ uint64(rng.Int63()) }
	digits := func(sb *strings.Builder, k int, lead bool) {
		for ; k > 0; k-- {
			c := byte('0' + rng.Intn(10))
			for lead && c == '0' {
				c = byte('1' + rng.Intn(9))
			}
			sb.WriteByte(c)
			lead = false
		}
	}
	// Random float64s: uniform bits, and values of the p_fail and
	// coordinate scale, in shortest and fixed-precision forms.
	for trial := 0; trial < 100000; trial++ {
		f := math.Float64frombits(bits())
		if trial%2 == 1 {
			f = rng.Float64() * math.Pow(10, float64(rng.Intn(61)-30))
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		check(strconv.FormatFloat(f, 'g', -1, 64))
		check(strconv.FormatFloat(f, 'e', rng.Intn(21), 64))
		if trial%2 == 1 {
			check(strconv.FormatFloat(f, 'f', rng.Intn(21), 64))
		}
	}
	// Random digit strings: 1–25 digits, an optional fraction, an
	// optional exponent in ±30.
	var sb strings.Builder
	for trial := 0; trial < 750000; trial++ {
		sb.Reset()
		if rng.Intn(2) == 0 {
			sb.WriteByte('-')
		}
		total := 1 + rng.Intn(25)
		whole := 1 + rng.Intn(total)
		if whole == 1 && rng.Intn(3) == 0 {
			sb.WriteByte('0')
		} else {
			digits(&sb, whole, true)
		}
		if whole < total {
			sb.WriteByte('.')
			digits(&sb, total-whole, false)
		}
		if rng.Intn(2) == 0 {
			sb.WriteString([]string{"e", "E", "e+", "E-", "e-", "e0"}[rng.Intn(6)])
			sb.WriteString(strconv.Itoa(rng.Intn(31)))
		}
		check(sb.String())
	}
	// Mantissas around 2⁵³, with every exponent near the exact range and
	// the point anywhere in the digits.
	for m := uint64(1<<53 - 100); m <= 1<<53+100; m++ {
		s := strconv.FormatUint(m, 10)
		for k := -25; k <= 25; k++ {
			check(s + "e" + strconv.Itoa(k))
			check("-" + s + "e" + strconv.Itoa(k))
		}
		for p := 1; p < len(s); p++ {
			check(s[:p] + "." + s[p:])
		}
	}
	// Subnormal and overflowing values: the exact path must not apply,
	// and the range error must be strconv's.
	for _, tok := range []string{
		"5e-324", "4.9e-324", "2.4e-324", "2.5e-324", "1e-400", "-1e-400",
		"2.2250738585072011e-308", "2.2250738585072014e-308",
		"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
		"1.8e308", "-1.8e308", "1e309", "1e400", "-1e400",
		"179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
		"0e99999999999999999999", "1e-99999999999999999999", "1e99999999999999999999",
		// Leading zeros of the fraction against an exponent past the point
		// where strconv stops reading it (10⁴): strconv gives 1, -1, 0
		// and 0 here, not the values the digits spell.
		"0." + strings.Repeat("0", 9999) + "1e100000",
		"-0." + strings.Repeat("0", 9999) + "1e100000",
		"0." + strings.Repeat("0", 99999) + "1e100000",
		"0." + strings.Repeat("0", 99999) + "1e0100000",
	} {
		check(tok)
	}
	// strconv reads these through its slow path: a few thousand suffice.
	for trial := 0; trial < 2000; trial++ {
		f := math.Float64frombits(bits() & (1<<52 - 1)) // subnormal or zero
		check(strconv.FormatFloat(f, 'g', -1, 64))
		check(strconv.FormatFloat(f, 'e', rng.Intn(21), 64))
	}
	if tokens < 1000000 {
		t.Fatalf("checked %d tokens, want at least 10⁶", tokens)
	}
	if exact < tokens/10 {
		t.Fatalf("the exact path decoded %d of %d tokens; the generators miss it", exact, tokens)
	}
	t.Logf("%d tokens, %d on the exact path", tokens, exact)
}
