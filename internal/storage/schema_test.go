package storage

import (
	"errors"
	"testing"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Field{Name: "id", Type: TypeInt},
		Field{Name: "name", Type: TypeString, Sensitivity: Personal},
		Field{Name: "amount", Type: TypeFloat},
		Field{Name: "ok", Type: TypeBool, Nullable: true},
		Field{Name: "ts", Type: TypeTime},
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema(); !errors.Is(err, ErrEmptySchema) {
		t.Errorf("empty schema error = %v, want ErrEmptySchema", err)
	}
	if _, err := NewSchema(Field{Name: "", Type: TypeInt}); err == nil {
		t.Error("empty field name must be rejected")
	}
	if _, err := NewSchema(Field{Name: "x", Type: TypeUnknown}); err == nil {
		t.Error("unknown field type must be rejected")
	}
	if _, err := NewSchema(Field{Name: "x", Type: TypeInt}, Field{Name: "x", Type: TypeInt}); !errors.Is(err, ErrDuplicateField) {
		t.Errorf("duplicate field error = %v, want ErrDuplicateField", err)
	}
}

func TestSchemaLookup(t *testing.T) {
	s := testSchema(t)
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
	if s.IndexOf("amount") != 2 {
		t.Errorf("IndexOf(amount) = %d, want 2", s.IndexOf("amount"))
	}
	if s.IndexOf("missing") != -1 {
		t.Errorf("IndexOf(missing) = %d, want -1", s.IndexOf("missing"))
	}
	if !s.Has("id") || s.Has("nope") {
		t.Error("Has misbehaves")
	}
	f, err := s.FieldByName("name")
	if err != nil || f.Type != TypeString {
		t.Errorf("FieldByName(name) = %+v, %v", f, err)
	}
	if _, err := s.FieldByName("zzz"); !errors.Is(err, ErrUnknownField) {
		t.Errorf("FieldByName(zzz) error = %v, want ErrUnknownField", err)
	}
}

func TestSchemaProject(t *testing.T) {
	s := testSchema(t)
	p, err := s.Project("amount", "id")
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	want := []string{"amount", "id"}
	got := p.Names()
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("projected names = %v, want %v", got, want)
	}
	if _, err := s.Project("nope"); err == nil {
		t.Error("projecting unknown field must fail")
	}
	if _, err := s.Project(); !errors.Is(err, ErrEmptySchema) {
		t.Error("projecting zero fields must fail with ErrEmptySchema")
	}
}

func TestSchemaAppendRename(t *testing.T) {
	s := testSchema(t)
	s2, err := s.Append(Field{Name: "extra", Type: TypeFloat})
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if s2.Len() != 6 || !s2.Has("extra") {
		t.Errorf("appended schema = %v", s2.Names())
	}
	if _, err := s.Append(Field{Name: "id", Type: TypeInt}); err == nil {
		t.Error("appending duplicate name must fail")
	}
	s3, err := s.Rename("name", "customer")
	if err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if !s3.Has("customer") || s3.Has("name") {
		t.Errorf("renamed schema = %v", s3.Names())
	}
	if _, err := s.Rename("ghost", "x"); err == nil {
		t.Error("renaming unknown field must fail")
	}
	// Original schema must be untouched.
	if !s.Has("name") || s.Len() != 5 {
		t.Error("Rename/Append must not mutate the receiver")
	}
}

func TestSchemaEqual(t *testing.T) {
	a := testSchema(t)
	b := testSchema(t)
	if !a.Equal(b) {
		t.Error("identical schemas must be Equal")
	}
	c, _ := b.Rename("id", "key")
	if a.Equal(c) {
		t.Error("different schemas must not be Equal")
	}
	var nilSchema *Schema
	if a.Equal(nilSchema) {
		t.Error("schema must not equal nil")
	}
}

func TestSchemaSensitivity(t *testing.T) {
	s := testSchema(t)
	if s.MaxSensitivity() != Personal {
		t.Errorf("MaxSensitivity = %v, want Personal", s.MaxSensitivity())
	}
}

func TestFieldTypeString(t *testing.T) {
	if TypeFloat.String() != "float" || TypeUnknown.String() != "unknown" {
		t.Error("FieldType.String misbehaves")
	}
	if Sensitive.String() != "sensitive" || Public.String() != "public" {
		t.Error("Sensitivity.String misbehaves")
	}
}

func TestSchemaString(t *testing.T) {
	s := MustSchema(Field{Name: "a", Type: TypeInt}, Field{Name: "b", Type: TypeString})
	if got := s.String(); got != "{a:int, b:string}" {
		t.Errorf("String = %q", got)
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSchema must panic on invalid input")
		}
	}()
	MustSchema()
}
