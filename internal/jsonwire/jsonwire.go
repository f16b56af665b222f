// Package jsonwire holds the JSON primitives behind the wire fast path:
// appenders whose output encoding/json decodes exactly as it decodes
// json.Marshal's, and a Decoder for the canonical layout encoding/json
// itself emits (declared field order, no whitespace, plain ASCII strings,
// integers only).
//
// The Decoder accepts a strict subset of JSON. Whatever it rejects, the
// caller hands to encoding/json, so the language a peer may send never
// changes; and whatever it accepts, json.Unmarshal accepts too and decodes
// to the same value. That decode-equivalence, not byte equality, is the
// compatibility bar: the appenders skip encoding/json's HTML escapes of
// <, > and &, which decode identically.
package jsonwire

import "unicode/utf8"

// hasPrefix reports whether b starts with s.
func hasPrefix(b []byte, s string) bool {
	return len(b) >= len(s) && string(b[:len(s)]) == s
}

// parseUint consumes a JSON unsigned integer: no sign, no leading zeros, no
// fraction or exponent (the caller sees the '.' or 'e' as the next byte and
// rejects), and nothing past MaxUint64.
func parseUint(p []byte) (uint64, []byte, bool) {
	if len(p) == 0 || p[0] < '0' || p[0] > '9' {
		return 0, p, false
	}
	if p[0] == '0' {
		if len(p) > 1 && p[1] >= '0' && p[1] <= '9' {
			return 0, p, false
		}
		return 0, p[1:], true
	}
	var n uint64
	i := 0
	for ; i < len(p) && p[i] >= '0' && p[i] <= '9'; i++ {
		d := uint64(p[i] - '0')
		if n > (1<<64-1-d)/10 {
			return 0, p, false
		}
		n = n*10 + d
	}
	return n, p[i:], true
}

// parseInt consumes an optional minus sign and a JSON integer, rejecting
// values outside int64.
func parseInt(p []byte) (int64, []byte, bool) {
	neg := len(p) > 0 && p[0] == '-'
	q := p
	if neg {
		q = p[1:]
	}
	n, rest, ok := parseUint(q)
	if !ok || n > 1<<63-1 && !(neg && n == 1<<63) {
		return 0, p, false
	}
	if neg {
		return -int64(n), rest, true // 1<<63 converts to MinInt64, which negates to itself
	}
	return int64(n), rest, true
}

// parsePlainString consumes the body of a JSON string up to its closing
// quote (the opening quote is already consumed). Only printable ASCII
// without escapes is accepted: that decodes to itself, byte for byte.
func parsePlainString(p []byte) ([]byte, []byte, bool) {
	for i := 0; i < len(p); i++ {
		switch c := p[i]; {
		case c == '"':
			return p[:i], p[i+1:], true
		case c < 0x20 || c == '\\' || c >= utf8.RuneSelf:
			return nil, p, false
		}
	}
	return nil, p, false
}

// AppendInt appends the decimal form of v.
func AppendInt(dst []byte, v int64) []byte {
	if v < 0 {
		dst = append(dst, '-')
		return AppendUint(dst, uint64(-v)) // MinInt64 negates to itself; the uint64 conversion keeps the magnitude
	}
	return AppendUint(dst, uint64(v))
}

// AppendUint appends the decimal form of v.
func AppendUint(dst []byte, v uint64) []byte {
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return append(dst, tmp[i:]...)
}

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string literal. Quotes, backslashes and
// control characters escape; invalid UTF-8 bytes become U+FFFD exactly as
// encoding/json emits them.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `�`...)
			i++
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// The field appenders below take the whole key prefix, separator included
// (`,"name":`), and skip zero values the way an omitempty tag does.

// AppendStringField appends key and s unless s is empty.
func AppendStringField(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return AppendString(append(dst, key...), s)
}

// AppendIntField appends key and v unless v is zero.
func AppendIntField(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return AppendInt(append(dst, key...), v)
}

// AppendUintField appends key and v unless v is zero.
func AppendUintField(dst []byte, key string, v uint64) []byte {
	if v == 0 {
		return dst
	}
	return AppendUint(append(dst, key...), v)
}

// AppendBoolField appends key and true unless v is false.
func AppendBoolField(dst []byte, key string, v bool) []byte {
	if !v {
		return dst
	}
	return append(append(dst, key...), "true"...)
}

// AppendStringsField appends key and the array ss unless ss is empty.
func AppendStringsField(dst []byte, key string, ss []string) []byte {
	if len(ss) == 0 {
		return dst
	}
	dst = append(append(dst, key...), '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, s)
	}
	return append(dst, ']')
}

// Appender is a type with a canonical-layout encoder. AppendJSON appends
// the value and reports false when it holds something outside the fast
// subset; dst is then garbage and the caller falls back to encoding/json.
type Appender interface {
	AppendJSON(dst []byte) ([]byte, bool)
}

// AppendList appends xs as a JSON array; a nil slice is null, as
// encoding/json writes it.
func AppendList[T Appender](dst []byte, xs []T) ([]byte, bool) {
	if xs == nil {
		return append(dst, "null"...), true
	}
	dst = append(dst, '[')
	for i := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		var ok bool
		if dst, ok = xs[i].AppendJSON(dst); !ok {
			return dst, false
		}
	}
	return append(dst, ']'), true
}

// Decoder walks one document in canonical layout. Every read is sticky on
// failure: once something does not match, Done reports false and the
// remaining reads return zero values, so a DecodeJSON method can read all
// its fields in order and check once at the end.
type Decoder struct {
	p   []byte
	bad bool
}

// Decodable is a pointer to a type with a canonical-layout decoder.
type Decodable[T any] interface {
	*T
	DecodeJSON(d *Decoder)
}

// Parse decodes b into *dst, which must hold a zero value (a fresh
// variable, as json.Unmarshal is used on the wire), and reports whether b
// was entirely in the fast subset. On false *dst is zero again, ready for
// the encoding/json fallback.
func Parse[T any, P Decodable[T]](b []byte, dst *T) bool {
	d := NewDecoder(b)
	P(dst).DecodeJSON(&d)
	if d.Done() {
		return true
	}
	*dst = *new(T)
	return false
}

// NewDecoder returns a decoder reading b.
func NewDecoder(b []byte) Decoder { return Decoder{p: b} }

// take moves past a value a scanner read, or fails the decode when the
// scanner did not accept it.
func (d *Decoder) take(rest []byte, ok bool) bool {
	if d.bad || !ok {
		d.bad = true
		return false
	}
	d.p = rest
	return true
}

// Done reports whether every read matched and the input is used up.
func (d *Decoder) Done() bool { return !d.bad && len(d.p) == 0 }

// Expect consumes s, failing the decode when it is not next.
func (d *Decoder) Expect(s string) {
	if !d.Field(s) {
		d.bad = true
	}
}

// Field consumes key when it is next and reports whether it was. Absent
// keys leave the field at its zero value, as json.Unmarshal does.
func (d *Decoder) Field(key string) bool {
	if d.bad || !hasPrefix(d.p, key) {
		return false
	}
	d.p = d.p[len(key):]
	return true
}

// Bytes reads key's string value (nil when key is absent) as a view into
// the input. An empty key reads a bare value, such as an array element.
func (d *Decoder) Bytes(key string) []byte {
	if !d.Field(key) {
		return nil
	}
	d.Expect(`"`)
	s, rest, ok := parsePlainString(d.p)
	if !d.take(rest, ok) {
		return nil
	}
	return s
}

// Str reads key's string value as Bytes does, copying it out.
func (d *Decoder) Str(key string) string { return string(d.Bytes(key)) }

// Rest consumes and returns the unread input.
func (d *Decoder) Rest() []byte {
	rest := d.p
	d.p = nil
	return rest
}

// Uint reads key's unsigned value, rejecting anything above max.
func (d *Decoder) Uint(key string, max uint64) uint64 {
	if !d.Field(key) {
		return 0
	}
	n, rest, ok := parseUint(d.p)
	if !d.take(rest, ok && n <= max) {
		return 0
	}
	return n
}

// Int64 reads key's signed value.
func (d *Decoder) Int64(key string) int64 {
	if !d.Field(key) {
		return 0
	}
	n, rest, ok := parseInt(d.p)
	if !d.take(rest, ok) {
		return 0
	}
	return n
}

// Int reads key's value into an int, rejecting values int cannot hold.
func (d *Decoder) Int(key string) int {
	n := d.Int64(key)
	if int64(int(n)) != n {
		d.bad = true
		return 0
	}
	return int(n)
}

// Bool reads key's boolean value.
func (d *Decoder) Bool(key string) bool {
	if !d.Field(key) {
		return false
	}
	if d.Field("true") {
		return true
	}
	d.Expect("false")
	return false
}

// list opens key's array value and reports whether there is one to read
// with more; null (and an absent key) read as a nil slice.
func (d *Decoder) list(key string) bool {
	if !d.Field(key) || d.Field("null") {
		return false
	}
	d.Expect("[")
	return !d.bad
}

// more reports whether the array list opened has another element, given
// that i elements were read already. It consumes the separator before the
// element, or the closing bracket.
func (d *Decoder) more(i int) bool {
	if d.bad || d.Field("]") {
		return false
	}
	if i > 0 {
		d.Expect(",")
	}
	return !d.bad
}

// Strings reads key's array of strings; [] is an empty non-nil slice, as
// json.Unmarshal makes it.
func (d *Decoder) Strings(key string) []string {
	if !d.list(key) {
		return nil
	}
	ss := []string{}
	for i := 0; d.more(i); i++ {
		ss = append(ss, d.Str(""))
	}
	return ss
}

// DecodeList reads key's array of T; null and an absent key read as nil,
// and [] as an empty non-nil slice, as json.Unmarshal makes it.
func DecodeList[T any, P Decodable[T]](d *Decoder, key string) []T {
	if !d.list(key) {
		return nil
	}
	xs := []T{}
	for i := 0; d.more(i); i++ {
		xs = append(xs, *new(T))
		P(&xs[i]).DecodeJSON(d)
	}
	return xs
}
