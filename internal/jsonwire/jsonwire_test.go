package jsonwire

import (
	"encoding/json"
	"testing"
)

// The scanners accept exactly the integers encoding/json accepts into the
// same type, and stop at the first byte that is not part of the number.
func TestParseIntegers(t *testing.T) {
	for _, c := range []struct {
		in   string
		ok   bool
		rest string
	}{
		{"0", true, ""}, {"7,", true, ","}, {"18446744073709551615}", true, "}"},
		{"18446744073709551616", false, ""}, {"99999999999999999999", false, ""},
		{"01", false, ""}, {"00", false, ""}, {"-1", false, ""}, {"", false, ""}, {"1.5", true, ".5"},
	} {
		n, rest, ok := parseUint([]byte(c.in))
		if ok != c.ok || ok && string(rest) != c.rest {
			t.Errorf("parseUint(%q) = %d, %q, %v", c.in, n, rest, ok)
		}
		if c.rest != "" {
			continue
		}
		var ref uint64
		if refOK := json.Unmarshal([]byte(c.in), &ref) == nil; refOK != ok || ref != n {
			t.Errorf("parseUint(%q) = %d, %v; encoding/json = %d, %v", c.in, n, ok, ref, refOK)
		}
	}
	for _, c := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"-0", 0, true}, {"-9223372036854775808", -1 << 63, true}, {"9223372036854775807", 1<<63 - 1, true},
		{"9223372036854775808", 0, false}, {"-9223372036854775809", 0, false}, {"-", 0, false}, {"-01", 0, false},
	} {
		n, _, ok := parseInt([]byte(c.in))
		if ok != c.ok || n != c.want {
			t.Errorf("parseInt(%q) = %d, %v; want %d, %v", c.in, n, ok, c.want, c.ok)
		}
	}
}

// Plain strings are printable ASCII without escapes; everything else is
// left to encoding/json.
func TestParsePlainString(t *testing.T) {
	for in, ok := range map[string]bool{
		`abc"`: true, `"`: true, `a b~"`: true, `a\"b"`: false, "tab\t\"": false, "é\"": false, "\x7f\"": true, `abc`: false,
	} {
		if _, _, got := parsePlainString([]byte(in)); got != ok {
			t.Errorf("parsePlainString(%q) ok = %v, want %v", in, got, ok)
		}
	}
}

// AppendString's output decodes to the input, as json.Marshal's does.
func TestAppendStringDecodesLikeMarshal(t *testing.T) {
	for _, s := range []string{"", "plain", `q"b\s`, "\n\r\t\x00\x1f", "<&>", "é€𝄞", "\xff\xfe", " "} {
		var got, want string
		if err := json.Unmarshal(AppendString(nil, s), &got); err != nil {
			t.Fatalf("AppendString(%q) is not JSON: %v", s, err)
		}
		ref, _ := json.Marshal(s)
		json.Unmarshal(ref, &want)
		if got != want {
			t.Errorf("AppendString(%q) decodes to %q, json.Marshal to %q", s, got, want)
		}
	}
}
