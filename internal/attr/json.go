package attr

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"time"
)

// jsonValue is the wire-agnostic JSON form of a Value: a tagged union
// so integers, floats, strings and times round-trip without ambiguity.
type jsonValue struct {
	S *string  `json:"s,omitempty"`
	I *int64   `json:"i,omitempty"`
	F *float64 `json:"f,omitempty"`
	// T is RFC 3339 with nanoseconds.
	T *string `json:"t,omitempty"`
}

// MarshalJSON encodes the value as a tagged union.
func (v Value) MarshalJSON() ([]byte, error) {
	var jv jsonValue
	switch v.kind {
	case KindString:
		jv.S = &v.s
	case KindInt:
		jv.I = &v.i
	case KindFloat:
		jv.F = &v.f
	case KindTime:
		t := time.Unix(0, v.i).UTC().Format(time.RFC3339Nano)
		jv.T = &t
	default:
		return nil, fmt.Errorf("attr: marshal invalid value")
	}
	return json.Marshal(jv)
}

// UnmarshalJSON decodes the tagged union produced by MarshalJSON.
func (v *Value) UnmarshalJSON(data []byte) error {
	var jv jsonValue
	if err := json.Unmarshal(data, &jv); err != nil {
		return err
	}
	set := 0
	if jv.S != nil {
		*v = String(*jv.S)
		set++
	}
	if jv.I != nil {
		*v = Int(*jv.I)
		set++
	}
	if jv.F != nil {
		*v = Float(*jv.F)
		set++
	}
	if jv.T != nil {
		t, err := time.Parse(time.RFC3339Nano, *jv.T)
		if err != nil {
			return fmt.Errorf("attr: bad time value: %w", err)
		}
		*v = Time(t)
		set++
	}
	if set != 1 {
		return fmt.Errorf("attr: value union must set exactly one field, got %d", set)
	}
	return nil
}

// MarshalJSON encodes the descriptor as a flat attribute object.
func (d Descriptor) MarshalJSON() ([]byte, error) {
	out := make(map[string]Value, d.Len())
	for _, a := range d.list() {
		out[a.name] = a.v
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes a descriptor from a flat attribute object.
func (d *Descriptor) UnmarshalJSON(data []byte) error {
	var m map[string]Value
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	attrs := make([]attribute, 0, len(m))
	for name, v := range m {
		attrs = append(attrs, attribute{name, v})
	}
	slices.SortFunc(attrs, func(a, b attribute) int { return strings.Compare(a.name, b.name) })
	*d = newDescriptor(attrs)
	return nil
}
