package wsrpc

import (
	"encoding/json"

	"falkon/internal/jsonwire"
)

// MarshalBody encodes a call argument, reply or notification body. Types
// with a canonical-layout encoder (AppendJSON, as fproto's per-task bodies
// have) skip encoding/json's reflection; anything else, or a value the
// encoder declines, goes through json.Marshal. Both produce bytes that
// json.Unmarshal decodes to the same value.
func MarshalBody(v any) ([]byte, error) {
	if a, ok := v.(jsonwire.Appender); ok {
		// 256 bytes hold a one-task body, the common size, without regrowth.
		if b, ok := a.AppendJSON(make([]byte, 0, 256)); ok {
			return b, nil
		}
	}
	return json.Marshal(v)
}

// UnmarshalBody decodes body into v, which must point at a zero value (a
// fresh variable, as the hot handlers use). Types with a canonical-layout
// parser (ParseJSON) take it when body is in its fast subset; everything
// else — escapes, whitespace, reordered or unknown keys — goes through
// json.Unmarshal, so the accepted wire language is exactly encoding/json's.
func UnmarshalBody(body []byte, v any) error {
	if p, ok := v.(interface{ ParseJSON([]byte) bool }); ok && p.ParseJSON(body) {
		return nil
	}
	return json.Unmarshal(body, v)
}
