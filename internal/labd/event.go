package labd

import (
	"errors"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"impress/internal/experiments"
)

// The NDJSON codec of GET /v1/jobs/{id}/events. Event has a fixed
// schema, so both sides skip reflection: appendEvent writes exactly
// the bytes json.Encoder writes for an Event (field order, omitempty,
// HTML escaping, U+2028/U+2029 escapes, invalid UTF-8 as \ufffd, the
// trailing newline), and parseEvent reads a subset of JSON objects —
// the schema's keys, exactly spelled, with string or integer values or
// null — into exactly what json.Unmarshal would decode from them.
// Anything outside that subset is rejected, never decoded differently.
// FuzzEventCodec holds both halves to encoding/json.

// appendEvent appends e's NDJSON line, newline included, to dst.
func appendEvent(dst []byte, e *Event) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendInt(dst, e.Seq, 10)
	dst = append(dst, `,"kind":`...)
	dst = appendJSONString(dst, e.Kind)
	if e.Spec != "" {
		dst = append(dst, `,"spec":`...)
		dst = appendJSONString(dst, e.Spec)
	}
	if e.Key != "" {
		dst = append(dst, `,"key":`...)
		dst = appendJSONString(dst, e.Key)
	}
	if e.Cycles != 0 {
		dst = append(dst, `,"cycles":`...)
		dst = strconv.AppendInt(dst, e.Cycles, 10)
	}
	if e.Table != "" {
		dst = append(dst, `,"table":`...)
		dst = appendJSONString(dst, e.Table)
	}
	if e.State != "" {
		dst = append(dst, `,"state":`...)
		dst = appendJSONString(dst, string(e.State))
	}
	if e.Dropped != 0 {
		dst = append(dst, `,"dropped":`...)
		dst = strconv.AppendInt(dst, e.Dropped, 10)
	}
	if e.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, e.Error)
	}
	return append(dst, "}\n"...)
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string the way encoding/json
// does with HTML escaping on.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// errEventSyntax is what every rejected event line wraps.
var errEventSyntax = errors.New("not an event object")

// parseEvent decodes one event line (see the codec comment above).
func parseEvent(line []byte) (Event, error) {
	var e Event
	p := eventParser{b: line}
	p.space()
	if !p.consume('{') {
		return Event{}, p.fail("want '{'")
	}
	p.space()
	if !p.consume('}') {
		for {
			key, ok := p.str()
			if !ok {
				return Event{}, p.fail("want a field name")
			}
			p.space()
			if !p.consume(':') {
				return Event{}, p.fail("want ':'")
			}
			p.space()
			switch string(key) {
			case "seq":
				ok = p.int(&e.Seq)
			case "kind":
				ok = p.strField(&e.Kind, true)
			case "spec":
				ok = p.strField(&e.Spec, false)
			case "key":
				ok = p.strField(&e.Key, false)
			case "cycles":
				ok = p.int(&e.Cycles)
			case "table":
				ok = p.strField(&e.Table, false)
			case "state":
				ok = p.strField((*string)(&e.State), true)
			case "dropped":
				ok = p.int(&e.Dropped)
			case "error":
				ok = p.strField(&e.Error, false)
			default:
				return Event{}, p.fail(fmt.Sprintf("unknown field %q", key))
			}
			if !ok {
				return Event{}, p.fail("bad field value")
			}
			p.space()
			if p.consume('}') {
				break
			}
			if !p.consume(',') {
				return Event{}, p.fail("want ',' or '}'")
			}
			p.space()
		}
	}
	p.space()
	if p.i != len(p.b) {
		return Event{}, p.fail("trailing data")
	}
	return e, nil
}

// eventParser is a cursor over one event line. buf holds a string
// that needed unescaping.
type eventParser struct {
	b   []byte
	i   int
	buf []byte
}

func (p *eventParser) fail(msg string) error {
	return fmt.Errorf("%w: offset %d: %s", errEventSyntax, p.i, msg)
}

// space skips JSON whitespace.
func (p *eventParser) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

func (p *eventParser) consume(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// null consumes a null literal; json.Unmarshal leaves the field as is.
func (p *eventParser) null() bool {
	if len(p.b)-p.i >= 4 && string(p.b[p.i:p.i+4]) == "null" {
		p.i += 4
		return true
	}
	return false
}

// int decodes a JSON integer that fits an int64 into v, or null. A
// fraction or exponent is rejected, as json.Unmarshal rejects it for
// an int64 field.
func (p *eventParser) int(v *int64) bool {
	if p.null() {
		return true
	}
	neg := p.consume('-')
	limit := uint64(1<<63 - 1)
	if neg {
		limit++
	}
	if p.i >= len(p.b) || p.b[p.i] < '0' || p.b[p.i] > '9' {
		return false
	}
	var u uint64
	if p.b[p.i] == '0' {
		p.i++
	} else {
		for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
			d := uint64(p.b[p.i] - '0')
			if u > (limit-d)/10 {
				return false
			}
			u = u*10 + d
			p.i++
		}
	}
	if neg {
		*v = int64(-u)
	} else {
		*v = int64(u)
	}
	return true
}

// strField decodes a JSON string into v, or null. With known set, the
// kinds and states the daemon sends decode to their constants without
// allocating.
func (p *eventParser) strField(v *string, known bool) bool {
	if p.null() {
		return true
	}
	s, ok := p.str()
	switch {
	case !ok:
	case known:
		*v = intern(s)
	default:
		*v = string(s)
	}
	return ok
}

// intern returns the constant for a known kind or state, else a copy
// of s.
func intern(s []byte) string {
	for _, k := range internTable {
		if string(s) == k {
			return k
		}
	}
	return string(s)
}

var internTable = func() []string {
	t := []string{KindState, KindLagged,
		string(StateQueued), string(StateRunning), string(StateDone), string(StateFailed), string(StateCancelled)}
	for k := experiments.ProgressSpecStarted; k <= experiments.ProgressAttackFinished; k++ {
		t = append(t, k.String())
	}
	return t
}()

// str decodes a JSON string as json.Unmarshal does: escapes resolved,
// a valid surrogate pair joined, a lone surrogate and every invalid
// UTF-8 byte replaced by U+FFFD. The result aliases the line or the
// parser's buffer and is valid until the next call.
func (p *eventParser) str() ([]byte, bool) {
	if !p.consume('"') {
		return nil, false
	}
	start := p.i
	for p.i < len(p.b) {
		c := p.b[p.i]
		switch {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c == '\\' || c < ' ':
			return p.unescape(start)
		case c < utf8.RuneSelf:
			p.i++
		default:
			r, size := utf8.DecodeRune(p.b[p.i:])
			if r == utf8.RuneError && size == 1 {
				return p.unescape(start)
			}
			p.i += size
		}
	}
	return nil, false
}

// unescape finishes a string whose plain prefix runs from start to the
// cursor, decoding into the parser's buffer.
func (p *eventParser) unescape(start int) ([]byte, bool) {
	out := append(p.buf[:0], p.b[start:p.i]...)
	for p.i < len(p.b) {
		c := p.b[p.i]
		switch {
		case c == '"':
			p.i++
			p.buf = out
			return out, true
		case c < ' ':
			return nil, false
		case c == '\\':
			if p.i+1 >= len(p.b) {
				return nil, false
			}
			switch esc := p.b[p.i+1]; esc {
			case '"', '\\', '/':
				out = append(out, esc)
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
				r := hex4(p.b[p.i+2:])
				if r < 0 {
					return nil, false
				}
				p.i += 6
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, escapedRune(p.b[p.i:])); dec != utf8.RuneError {
						p.i += 6
						out = utf8.AppendRune(out, dec)
						continue
					}
					r = utf8.RuneError
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				return nil, false
			}
			p.i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			p.i++
		default:
			r, size := utf8.DecodeRune(p.b[p.i:])
			out = utf8.AppendRune(out, r)
			p.i += size
		}
	}
	return nil, false
}

// escapedRune decodes a leading \uXXXX escape, or returns -1.
func escapedRune(b []byte) rune {
	if len(b) < 2 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	return hex4(b[2:])
}

// hex4 decodes four leading hex digits, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
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
