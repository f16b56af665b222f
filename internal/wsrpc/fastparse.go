package wsrpc

import (
	"math"

	"falkon/internal/jsonwire"
)

// frameView is a zero-copy view of a parsed envelope: method, errs, and body
// alias the read scratch and are valid only until the next ReadFrame on the
// same connection. Consumers that retain bytes past that point must copy.
type frameView struct {
	kind   frameKind
	seq    uint64
	method []byte
	errs   []byte
	trace  uint64
	parent uint64
	recvNS int64
	sendNS int64
	body   []byte
}

// fastParseFrame parses the canonical envelope layout that both appendFrame
// and encoding/json emit for the frame struct:
//
//	{"k":N,"seq":N[,"m":"..."][,"e":"..."][,"tr":N][,"ps":N][,"rt":N][,"st":N][,"b":...]}
//
// in that field order, with no whitespace. It returns ok=false for anything
// non-canonical — reordered or unknown fields, escaped or non-ASCII strings,
// whitespace, leading zeros — and the caller falls back to decodeFrame, so
// the accepted wire language is unchanged; this is purely an
// allocation-free shortcut for the common case.
// The body slice is not validated as JSON here: whoever consumes it decodes
// it with UnmarshalBody, which reports garbage exactly like decodeFrame did.
func fastParseFrame(raw []byte) (frameView, bool) {
	d := jsonwire.NewDecoder(raw)
	d.Expect(`{"k":`)
	v := frameView{kind: frameKind(d.Uint("", uint64(kindNotify)))}
	d.Expect(`,"seq":`)
	v.seq = d.Uint("", math.MaxUint64)
	v.method = d.Bytes(`,"m":`)
	v.errs = d.Bytes(`,"e":`)
	v.trace = d.Uint(`,"tr":`, math.MaxUint64)
	v.parent = d.Uint(`,"ps":`, math.MaxUint64)
	v.recvNS = d.Int64(`,"rt":`)
	v.sendNS = d.Int64(`,"st":`)
	if d.Field(`,"b":`) {
		rest := d.Rest()
		if len(rest) < 2 || rest[len(rest)-1] != '}' {
			return v, false
		}
		v.body = rest[:len(rest)-1]
	} else {
		d.Expect("}")
	}
	return v, d.Done() && v.kind >= kindCall
}
