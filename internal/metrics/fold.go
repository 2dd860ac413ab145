package metrics

import "reflect"

// One fold serves every counter family — Sample and the families it
// carries (FaultCounters, DiskCounters, QoECounters, StrategyCounters),
// TierCounters, and any package's Stats struct of plain counters. Add,
// Any and Mean walk the fields by reflection, so a field added to a
// family is summed, tested and averaged without anyone writing it down
// a second time. Per kind:
//
//   - unsigned, signed (durations included) and float fields add;
//   - a string field is a label (the strategy names): the first
//     non-empty value sticks, and Any ignores it;
//   - a struct field folds field by field;
//   - a pointer-to-struct field is a family a run may lack: nil adds
//     nothing, and Mean averages it over the values that carry it, so
//     rows without it keep rendering as if it did not exist.
//
// Any other kind panics: it is a family nobody has decided how to fold.

// Add folds src into *dst field by field.
func Add[T any](dst *T, src T) { fold(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src)) }

// Any reports whether any numeric field of v, nested families
// included, is non-zero.
func Any[T any](v T) bool { return nonZero(reflect.ValueOf(v)) }

// Mean averages the samples field by field (zero value for an empty
// slice). Integer fields divide with truncation, as a per-run count
// averaged into a row always has.
func Mean(samples []Sample) Sample {
	var out Sample
	if len(samples) == 0 {
		return out
	}
	vals := make([]reflect.Value, len(samples))
	for i := range samples {
		vals[i] = reflect.ValueOf(samples[i])
	}
	mean(reflect.ValueOf(&out).Elem(), vals)
	if out.QoE != nil {
		out.QoE.SyncSeconds()
	}
	return out
}

func fold(dst, src reflect.Value) {
	switch {
	case dst.CanUint():
		dst.SetUint(dst.Uint() + src.Uint())
	case dst.CanInt():
		dst.SetInt(dst.Int() + src.Int())
	case dst.CanFloat():
		dst.SetFloat(dst.Float() + src.Float())
	case dst.Kind() == reflect.String:
		if dst.String() == "" {
			dst.SetString(src.String())
		}
	case dst.Kind() == reflect.Struct:
		for i := range dst.NumField() {
			fold(dst.Field(i), src.Field(i))
		}
	case dst.Kind() == reflect.Pointer:
		if src.IsNil() {
			return
		}
		if dst.IsNil() {
			dst.Set(reflect.New(dst.Type().Elem()))
		}
		fold(dst.Elem(), src.Elem())
	default:
		panic("metrics: no fold for " + dst.Type().String())
	}
}

func nonZero(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.String:
		return false
	case reflect.Struct:
		for i := range v.NumField() {
			if nonZero(v.Field(i)) {
				return true
			}
		}
		return false
	case reflect.Pointer:
		return !v.IsNil() && nonZero(v.Elem())
	default:
		return !v.IsZero()
	}
}

// mean sets dst to the field-wise mean of vals, which are never empty.
func mean(dst reflect.Value, vals []reflect.Value) {
	switch dst.Kind() {
	case reflect.Struct:
		field := make([]reflect.Value, len(vals))
		for i := range dst.NumField() {
			for j, v := range vals {
				field[j] = v.Field(i)
			}
			mean(dst.Field(i), field)
		}
		return
	case reflect.Pointer:
		var held []reflect.Value
		for _, v := range vals {
			if !v.IsNil() {
				held = append(held, v.Elem())
			}
		}
		if len(held) > 0 {
			dst.Set(reflect.New(dst.Type().Elem()))
			mean(dst.Elem(), held)
		}
		return
	}
	for _, v := range vals {
		fold(dst, v)
	}
	switch n := len(vals); {
	case dst.CanUint():
		dst.SetUint(dst.Uint() / uint64(n))
	case dst.CanInt():
		dst.SetInt(dst.Int() / int64(n))
	case dst.CanFloat():
		dst.SetFloat(dst.Float() / float64(n))
	}
}
