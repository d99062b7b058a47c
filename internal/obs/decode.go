package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"unsafe"
)

// unmarshalLine decodes one trace line into *v with json.Unmarshal's
// result. A Decision line in the canonical form takes decodeDecision;
// every other line goes to json.Unmarshal.
func unmarshalLine[T any](line []byte, v *T) error {
	if d, ok := any(v).(*Decision); ok {
		if decodeDecision(line, d) {
			return nil
		}
		// Start again from the zero record: json.Unmarshal merges into
		// what the fast path filled in before it gave up.
		*d = Decision{}
	}
	return json.Unmarshal(line, v)
}

// decodeDecision decodes line into *d, which must be the zero Decision,
// and reports whether line is in the canonical form the trace writers
// emit; when it is not, *d is left partly filled. Canonical means one
// JSON object with no whitespace, no null and no string escapes; known
// keys only, in struct-declaration order, each at most once, in exact
// case; strings of printable ASCII; integer fields without fraction or
// exponent. Every number token is checked against the JSON grammar and
// its bytes go to the strconv call encoding/json makes, so a canonical
// line decodes bit-equal to json.Unmarshal's result. Strings are copied,
// never aliased into line.
func decodeDecision(line []byte, d *Decision) bool {
	s := scanner{b: line}
	return s.object(decisionFields, unsafe.Pointer(d)) && s.i == len(line)
}

// fieldKind is a Go type the canonical decoder handles.
type fieldKind uint8

const (
	kindUnsupported fieldKind = iota
	kindInt
	kindFloat
	kindBool
	kindString
	kindStrings
	kindFloats
	kindFloatsMap
	kindFloatMap
	kindPayload
)

var fieldKinds = map[reflect.Type]fieldKind{
	reflect.TypeFor[int]():                  kindInt,
	reflect.TypeFor[float64]():              kindFloat,
	reflect.TypeFor[bool]():                 kindBool,
	reflect.TypeFor[string]():               kindString,
	reflect.TypeFor[[]string]():             kindStrings,
	reflect.TypeFor[[]float64]():            kindFloats,
	reflect.TypeFor[map[string][]float64](): kindFloatsMap,
	reflect.TypeFor[map[string]float64]():   kindFloatMap,
	reflect.TypeFor[*ReplayPayload]():       kindPayload,
}

// wireField is one struct field as the decoder sees it: its JSON key,
// its offset in the struct and its kind.
type wireField struct {
	key    string
	offset uintptr
	kind   fieldKind
}

// The field tables are read off the struct definitions once, so they
// follow every change to the schema; a field of a type not in fieldKinds
// sends the lines that carry it to json.Unmarshal.
var (
	decisionFields = wireFields(reflect.TypeFor[Decision]())
	payloadFields  = wireFields(reflect.TypeFor[ReplayPayload]())
)

func wireFields(t reflect.Type) []wireField {
	fs := make([]wireField, t.NumField())
	for i := range fs {
		f := t.Field(i)
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		kind := fieldKinds[f.Type]
		if !f.IsExported() || key == "" || key == "-" {
			// json.Unmarshal skips such a field or keys it by its Go name.
			kind = kindUnsupported
		}
		fs[i] = wireField{key: key, offset: f.Offset, kind: kind}
	}
	return fs
}

// scanner walks one canonical line; every method reports false, with
// s.i anywhere, at the first byte outside the canonical form.
type scanner struct {
	b []byte
	i int
}

// eat consumes c if it is the next byte.
func (s *scanner) eat(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// object decodes an object into the struct at p, whose fields are fs.
func (s *scanner) object(fs []wireField, p unsafe.Pointer) bool {
	next := 0
	return s.members(func(key []byte) bool {
		for next < len(fs) && string(key) != fs[next].key {
			next++
		}
		if next == len(fs) {
			return false
		}
		f := fs[next]
		next++
		return s.value(f.kind, unsafe.Add(p, f.offset))
	})
}

// value decodes a value of kind k into the field at p.
func (s *scanner) value(k fieldKind, p unsafe.Pointer) bool {
	switch k {
	case kindInt:
		return s.int((*int)(p))
	case kindFloat:
		return s.float((*float64)(p))
	case kindBool:
		return s.bool((*bool)(p))
	case kindString:
		raw, ok := s.str()
		*(*string)(p) = string(raw)
		return ok
	case kindStrings:
		return s.strings((*[]string)(p))
	case kindFloats:
		return s.floats((*[]float64)(p))
	case kindFloatsMap:
		m := map[string][]float64{}
		*(*map[string][]float64)(p) = m
		return s.members(func(key []byte) bool {
			var v []float64
			ok := s.floats(&v)
			m[string(key)] = v
			return ok
		})
	case kindFloatMap:
		m := map[string]float64{}
		*(*map[string]float64)(p) = m
		return s.members(func(key []byte) bool {
			var v float64
			ok := s.float(&v)
			m[string(key)] = v
			return ok
		})
	case kindPayload:
		r := new(ReplayPayload)
		*(**ReplayPayload)(p) = r
		return s.object(payloadFields, unsafe.Pointer(r))
	}
	return false
}

// members walks an object, calling member with each key (aliasing the
// line) once its colon is consumed; member decodes the value.
func (s *scanner) members(member func(key []byte) bool) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	for {
		key, ok := s.str()
		if !ok || !s.eat(':') || !member(key) {
			return false
		}
		if s.eat('}') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// str scans a string of printable ASCII without escapes and returns its
// content, aliasing the line.
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			raw := s.b[s.i:j]
			s.i = j + 1
			return raw, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// strings decodes an array of strings into one exactly sized slice: a
// first pass checks and counts the elements, a second copies them.
func (s *scanner) strings(p *[]string) bool {
	if !s.eat('[') {
		return false
	}
	start, n := s.i, 0
	for !s.eat(']') {
		if n > 0 && !s.eat(',') {
			return false
		}
		if _, ok := s.str(); !ok {
			return false
		}
		n++
	}
	v := make([]string, n)
	s.i = start
	for k := range v {
		if k > 0 {
			s.i++ // ','
		}
		raw, _ := s.str()
		v[k] = string(raw)
	}
	s.i++ // ']'
	*p = v
	return true
}

// floats decodes an array of numbers into one exactly sized slice. A
// number token holds no ']' or ',', so the first ']' closes a canonical
// array and the commas before it count its elements.
func (s *scanner) floats(p *[]float64) bool {
	if !s.eat('[') {
		return false
	}
	n := bytes.IndexByte(s.b[s.i:], ']')
	if n < 0 {
		return false
	}
	if n > 0 {
		n = bytes.Count(s.b[s.i:s.i+n], []byte{','}) + 1
	}
	v := make([]float64, n)
	for k := range v {
		if k > 0 && !s.eat(',') || !s.float(&v[k]) {
			return false
		}
	}
	*p = v
	return s.eat(']')
}

func (s *scanner) bool(p *bool) bool {
	switch rest := s.b[s.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*p = true
		s.i += 4
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += 5
	default:
		return false
	}
	return true
}

// float decodes a number with encoding/json's call for a float64 field.
func (s *scanner) float(p *float64) bool {
	tok := s.number()
	if tok == "" {
		return false
	}
	f, err := strconv.ParseFloat(tok, 64)
	*p = f
	return err == nil
}

// int decodes a number with encoding/json's call for an int field,
// which fails a fraction, an exponent and a value that overflows int.
func (s *scanner) int(p *int) bool {
	tok := s.number()
	if tok == "" {
		return false
	}
	n, err := strconv.ParseInt(tok, 10, 64)
	*p = int(n)
	return err == nil && int64(*p) == n
}

// number scans a token of the JSON number grammar and returns it,
// aliasing the line; it returns "" when the next bytes are not a number.
func (s *scanner) number() string {
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return ""
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return ""
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return ""
		}
		i = j
	}
	tok := unsafe.String(&b[s.i], i-s.i)
	s.i = i
	return tok
}

// digits returns the end of the run of decimal digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
