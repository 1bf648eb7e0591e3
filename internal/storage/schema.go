// Package storage implements the storage substrate of the simulated Big Data
// platform: typed schemas, rows, columnar batches (typed column vectors with
// null bitmaps), in-memory tables holding one batch per partition, the batch
// frame codec used by spilling and by the segment store, and a dataset
// catalog.
//
// The TOREADOR platform assumes data sources registered with the platform and
// described by a representation model; this package plays that role. All data
// is held in memory — the point of the substrate is to exercise the same code
// paths a distributed store would (schema validation, partitioning,
// serialization), not to persist terabytes.
package storage

import (
	"errors"
	"fmt"
	"strings"
)

// FieldType enumerates the value types supported by the engine.
type FieldType int

const (
	// TypeUnknown is the zero value and is never valid in a schema.
	TypeUnknown FieldType = iota
	// TypeString holds UTF-8 text.
	TypeString
	// TypeInt holds 64-bit signed integers.
	TypeInt
	// TypeFloat holds 64-bit floating point numbers.
	TypeFloat
	// TypeBool holds booleans.
	TypeBool
	// TypeTime holds timestamps encoded as Unix milliseconds (int64).
	TypeTime
)

// String implements fmt.Stringer.
func (t FieldType) String() string {
	switch t {
	case TypeString:
		return "string"
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeBool:
		return "bool"
	case TypeTime:
		return "time"
	default:
		return "unknown"
	}
}

// Sensitivity classifies how privacy-sensitive a field is. The compliance
// engine consumes these classifications when evaluating regulatory policies.
type Sensitivity int

const (
	// Public data carries no restriction.
	Public Sensitivity = iota
	// Internal data may be processed but not exposed outside the platform.
	Internal
	// Personal data identifies or relates to a natural person (PII).
	Personal
	// Sensitive data is special-category personal data (health, finance…).
	Sensitive
)

// String implements fmt.Stringer.
func (s Sensitivity) String() string {
	switch s {
	case Public:
		return "public"
	case Internal:
		return "internal"
	case Personal:
		return "personal"
	case Sensitive:
		return "sensitive"
	default:
		return fmt.Sprintf("sensitivity(%d)", int(s))
	}
}

// Field describes one column of a schema.
type Field struct {
	// Name is the column name; unique within a schema.
	Name string
	// Type is the value type of the column.
	Type FieldType
	// Sensitivity classifies the column for compliance purposes.
	Sensitivity Sensitivity
	// Nullable reports whether the column accepts null values.
	Nullable bool
}

// Schema is an ordered list of fields. Schemas are immutable after creation;
// derive new schemas with Project/Append/Rename.
type Schema struct {
	fields []Field
	index  map[string]int
}

// Common schema construction errors.
var (
	ErrEmptySchema    = errors.New("storage: schema must contain at least one field")
	ErrDuplicateField = errors.New("storage: duplicate field name")
	ErrUnknownField   = errors.New("storage: unknown field")
	ErrTypeMismatch   = errors.New("storage: value type mismatch")
)

// NewSchema builds a schema from the given fields. Field names must be
// non-empty and unique; field types must be valid.
func NewSchema(fields ...Field) (*Schema, error) {
	if len(fields) == 0 {
		return nil, ErrEmptySchema
	}
	s := &Schema{
		fields: make([]Field, len(fields)),
		index:  make(map[string]int, len(fields)),
	}
	copy(s.fields, fields)
	for i, f := range s.fields {
		if strings.TrimSpace(f.Name) == "" {
			return nil, fmt.Errorf("storage: field %d has empty name", i)
		}
		if f.Type == TypeUnknown {
			return nil, fmt.Errorf("storage: field %q has unknown type", f.Name)
		}
		if _, dup := s.index[f.Name]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateField, f.Name)
		}
		s.index[f.Name] = i
	}
	return s, nil
}

// MustSchema is like NewSchema but panics on error; intended for statically
// known schemas in generators and tests.
func MustSchema(fields ...Field) *Schema {
	s, err := NewSchema(fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of fields.
func (s *Schema) Len() int { return len(s.fields) }

// Fields returns a copy of the field list.
func (s *Schema) Fields() []Field {
	out := make([]Field, len(s.fields))
	copy(out, s.fields)
	return out
}

// Field returns the i-th field.
func (s *Schema) Field(i int) Field { return s.fields[i] }

// IndexOf returns the position of the named field, or -1 when absent.
func (s *Schema) IndexOf(name string) int {
	i, ok := s.index[name]
	if !ok {
		return -1
	}
	return i
}

// Has reports whether the schema contains the named field.
func (s *Schema) Has(name string) bool { return s.IndexOf(name) >= 0 }

// FieldByName returns the named field.
func (s *Schema) FieldByName(name string) (Field, error) {
	i := s.IndexOf(name)
	if i < 0 {
		return Field{}, fmt.Errorf("%w: %q", ErrUnknownField, name)
	}
	return s.fields[i], nil
}

// Names returns the ordered field names.
func (s *Schema) Names() []string {
	out := make([]string, len(s.fields))
	for i, f := range s.fields {
		out[i] = f.Name
	}
	return out
}

// Project returns a new schema containing only the named fields, in the given
// order.
func (s *Schema) Project(names ...string) (*Schema, error) {
	if len(names) == 0 {
		return nil, ErrEmptySchema
	}
	fields := make([]Field, 0, len(names))
	for _, n := range names {
		f, err := s.FieldByName(n)
		if err != nil {
			return nil, err
		}
		fields = append(fields, f)
	}
	return NewSchema(fields...)
}

// Append returns a new schema with extra fields appended.
func (s *Schema) Append(fields ...Field) (*Schema, error) {
	all := make([]Field, 0, len(s.fields)+len(fields))
	all = append(all, s.fields...)
	all = append(all, fields...)
	return NewSchema(all...)
}

// Rename returns a new schema with field old renamed to new.
func (s *Schema) Rename(oldName, newName string) (*Schema, error) {
	fields := s.Fields()
	i := s.IndexOf(oldName)
	if i < 0 {
		return nil, fmt.Errorf("%w: %q", ErrUnknownField, oldName)
	}
	fields[i].Name = newName
	return NewSchema(fields...)
}

// Equal reports whether two schemas have the same fields (name, type,
// sensitivity, nullability) in the same order.
func (s *Schema) Equal(other *Schema) bool {
	if s == nil || other == nil {
		return s == other
	}
	if len(s.fields) != len(other.fields) {
		return false
	}
	for i := range s.fields {
		if s.fields[i] != other.fields[i] {
			return false
		}
	}
	return true
}

// MaxSensitivity returns the highest sensitivity level among the fields.
func (s *Schema) MaxSensitivity() Sensitivity {
	maxLevel := Public
	for _, f := range s.fields {
		if f.Sensitivity > maxLevel {
			maxLevel = f.Sensitivity
		}
	}
	return maxLevel
}

// String renders a readable schema description.
func (s *Schema) String() string {
	parts := make([]string, len(s.fields))
	for i, f := range s.fields {
		parts[i] = fmt.Sprintf("%s:%s", f.Name, f.Type)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
