package storage

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func TestValidateRow(t *testing.T) {
	s := testSchema(t)
	good := Row{int64(1), "alice", 9.5, true, int64(1700000000000)}
	if err := ValidateRow(s, good); err != nil {
		t.Fatalf("ValidateRow(good) = %v", err)
	}
	withNull := Row{int64(1), "alice", 9.5, nil, int64(0)}
	if err := ValidateRow(s, withNull); err != nil {
		t.Fatalf("nullable field must accept nil: %v", err)
	}
	badArity := Row{int64(1)}
	if err := ValidateRow(s, badArity); err == nil {
		t.Error("wrong arity must fail")
	}
	badType := Row{"not-an-int", "alice", 9.5, true, int64(0)}
	if err := ValidateRow(s, badType); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("type mismatch error = %v, want ErrTypeMismatch", err)
	}
	nullNotAllowed := Row{nil, "alice", 9.5, true, int64(0)}
	if err := ValidateRow(s, nullNotAllowed); err == nil {
		t.Error("nil in non-nullable field must fail")
	}
}

func TestRowClone(t *testing.T) {
	r := Row{int64(1), "x"}
	c := r.Clone()
	c[0] = int64(2)
	if r[0].(int64) != 1 {
		t.Error("Clone must not share backing storage")
	}
}

func TestConversions(t *testing.T) {
	if AsString(nil) != "" || AsString("x") != "x" || AsString(int64(3)) != "3" ||
		AsString(2.5) != "2.5" || AsString(true) != "true" {
		t.Error("AsString misbehaves")
	}

	if f, ok := AsFloat(int64(4)); !ok || f != 4 {
		t.Error("AsFloat(int64) misbehaves")
	}
	if f, ok := AsFloat("3.5"); !ok || f != 3.5 {
		t.Error("AsFloat(string) misbehaves")
	}
	if f, ok := AsFloat(true); !ok || f != 1 {
		t.Error("AsFloat(bool) misbehaves")
	}
	if _, ok := AsFloat(nil); ok {
		t.Error("AsFloat(nil) must report !ok")
	}
	if _, ok := AsFloat("abc"); ok {
		t.Error("AsFloat(garbage) must report !ok")
	}

	if i, ok := AsInt(7.9); !ok || i != 7 {
		t.Error("AsInt(float) must truncate")
	}
	if i, ok := AsInt("42"); !ok || i != 42 {
		t.Error("AsInt(string) misbehaves")
	}
	if _, ok := AsInt("x"); ok {
		t.Error("AsInt(garbage) must report !ok")
	}

	if b, ok := AsBool(int64(1)); !ok || !b {
		t.Error("AsBool(int) misbehaves")
	}
	if b, ok := AsBool("false"); !ok || b {
		t.Error("AsBool(string) misbehaves")
	}
	if _, ok := AsBool("maybe"); ok {
		t.Error("AsBool(garbage) must report !ok")
	}
}

func TestTimeRoundTrip(t *testing.T) {
	now := time.Date(2017, 3, 21, 9, 30, 0, 0, time.UTC) // EDBT 2017 workshop day
	v := TimeValue(now)
	ms, ok := AsInt(v)
	if !ok || !time.UnixMilli(ms).UTC().Equal(now) {
		t.Fatalf("TimeValue(%v) = %v, want its Unix milliseconds", now, v)
	}
}

func TestCompareValues(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{nil, nil, 0},
		{nil, int64(1), -1},
		{int64(1), nil, 1},
		{int64(1), int64(2), -1},
		{2.5, 2.5, 0},
		{"a", "b", -1},
		{"b", "a", 1},
		{false, true, -1},
		{true, false, 1},
		{true, true, 0},
		{int64(3), 2.5, 1},
	}
	for _, tc := range cases {
		got := CompareValues(tc.a, tc.b)
		if sign(got) != tc.want {
			t.Errorf("CompareValues(%v, %v) = %d, want sign %d", tc.a, tc.b, got, tc.want)
		}
	}
	if CompareValues("x", "x") != 0 || CompareValues(int64(1), int64(2)) == 0 {
		t.Error("CompareValues equality misbehaves")
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

// Property: CompareValues is antisymmetric for int64 values.
func TestCompareValuesPropertyAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return sign(CompareValues(a, b)) == -sign(CompareValues(b, a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
