package storage

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Value is a dynamically typed cell value. Valid dynamic types are string,
// int64, float64, bool, time-as-int64-millis and nil (null).
type Value any

// Row is an ordered tuple of values matching a schema positionally.
type Row []Value

// Clone returns a deep-enough copy of the row (values are scalars).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// ValidateRow checks that the row matches the schema: arity, per-field type
// and nullability.
func ValidateRow(s *Schema, r Row) error {
	if len(r) != s.Len() {
		return fmt.Errorf("storage: row has %d values, schema has %d fields", len(r), s.Len())
	}
	for i, v := range r {
		f := s.Field(i)
		if v == nil {
			if !f.Nullable {
				return fmt.Errorf("storage: field %q is not nullable", f.Name)
			}
			continue
		}
		if !valueMatches(f.Type, v) {
			return fmt.Errorf("%w: field %q expects %s, got %T", ErrTypeMismatch, f.Name, f.Type, v)
		}
	}
	return nil
}

// ValidateCell checks a single value against one field's type and
// nullability, with the same errors ValidateRow reports.
func ValidateCell(f Field, v Value) error {
	if v == nil {
		if !f.Nullable {
			return fmt.Errorf("storage: field %q is not nullable", f.Name)
		}
		return nil
	}
	if !valueMatches(f.Type, v) {
		return fmt.Errorf("%w: field %q expects %s, got %T", ErrTypeMismatch, f.Name, f.Type, v)
	}
	return nil
}

func valueMatches(t FieldType, v Value) bool {
	switch t {
	case TypeString:
		_, ok := v.(string)
		return ok
	case TypeInt, TypeTime:
		_, ok := v.(int64)
		return ok
	case TypeFloat:
		_, ok := v.(float64)
		return ok
	case TypeBool:
		_, ok := v.(bool)
		return ok
	default:
		return false
	}
}

// AsString converts v to a string, coercing scalar types. Null becomes "".
func AsString(v Value) string {
	switch x := v.(type) {
	case nil:
		return ""
	case string:
		return x
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(x)
	default:
		return fmt.Sprintf("%v", x)
	}
}

// AsFloat converts v to a float64. Strings are parsed; booleans map to 0/1;
// null maps to 0 with ok=false.
func AsFloat(v Value) (float64, bool) {
	switch x := v.(type) {
	case nil:
		return 0, false
	case float64:
		return x, true
	case int64:
		return float64(x), true
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	case string:
		f, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return 0, false
		}
		return f, true
	default:
		return 0, false
	}
}

// AsInt converts v to an int64. Floats are truncated; strings parsed.
func AsInt(v Value) (int64, bool) {
	switch x := v.(type) {
	case nil:
		return 0, false
	case int64:
		return x, true
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0, false
		}
		return int64(x), true
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	case string:
		i, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, false
		}
		return i, true
	default:
		return 0, false
	}
}

// AsBool converts v to a bool. Non-zero numbers are true; strings parsed.
func AsBool(v Value) (bool, bool) {
	switch x := v.(type) {
	case nil:
		return false, false
	case bool:
		return x, true
	case int64:
		return x != 0, true
	case float64:
		return x != 0, true
	case string:
		b, err := strconv.ParseBool(x)
		if err != nil {
			return false, false
		}
		return b, true
	default:
		return false, false
	}
}

// TimeValue converts a time.Time to the engine's TypeTime representation.
func TimeValue(t time.Time) Value { return t.UnixMilli() }

// CompareValues orders two values of the same logical type. Nulls sort first.
// The result is negative when a < b, zero when equal, positive when a > b.
func CompareValues(a, b Value) int {
	if a == nil && b == nil {
		return 0
	}
	if a == nil {
		return -1
	}
	if b == nil {
		return 1
	}
	switch x := a.(type) {
	case string:
		y := AsString(b)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		default:
			return 0
		}
	case bool:
		y, _ := AsBool(b)
		switch {
		case !x && y:
			return -1
		case x && !y:
			return 1
		default:
			return 0
		}
	default:
		xf, _ := AsFloat(a)
		yf, _ := AsFloat(b)
		switch {
		case xf < yf:
			return -1
		case xf > yf:
			return 1
		default:
			return 0
		}
	}
}
