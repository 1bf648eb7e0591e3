package runner

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// TestPseudonymizeGolden pins the pseudonymisation token format: "pseu-"
// followed by the 16 lower-case hex digits of the value's FNV-64a hash. The
// tokens are persisted in saved result tables, so any change to them is a
// change to stored data.
func TestPseudonymizeGolden(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"empty", "", "pseu-cbf29ce484222325"},
		{"ascii", "alice", "pseu-508b2abb65a03907"},
		{"email", "alice.smith@example.com", "pseu-e859af21ffb0b29f"},
		{"multi-byte utf-8", "Zoë Ångström 東京", "pseu-6dc01bc73c409724"},
		{"nul byte", "a\x00b", "pseu-e5d29919042666b2"},
		{"1 KiB", strings.Repeat("0123456789abcdef", 64), "pseu-b7970ec3ca629125"},
	}
	for _, c := range cases {
		if got := pseudonymize(c.in); got != c.want {
			t.Errorf("%s: pseudonymize = %s, want %s", c.name, got, c.want)
		}
	}
}

// maskSink keeps the masks' results escaping, as they do into a column.
var maskSink string

// TestMaskAllocations holds the masks to their allocation budget: one
// allocation per pseudonymised value (the result string) and none for the
// strict mask's constant.
func TestMaskAllocations(t *testing.T) {
	v := "alice.smith@example.com"
	if n := testing.AllocsPerRun(100, func() { maskSink = pseudonymize(v) }); n != 1 {
		t.Errorf("pseudonymize allocates %.0f times per value, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { maskSink = maskStrict(v) }); n != 0 {
		t.Errorf("maskStrict allocates %.0f times per value, want 0", n)
	}
}

// FuzzPseudonymize holds the inline hash and hex formatter to the standard
// library's FNV-64a and fmt's %016x on arbitrary input.
func FuzzPseudonymize(f *testing.F) {
	for _, s := range []string{"", "alice", "a\x00b", "Zoë", "\xff\xfe"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, v string) {
		h := fnv.New64a()
		_, _ = h.Write([]byte(v))
		want := fmt.Sprintf("pseu-%016x", h.Sum64())
		if got := pseudonymize(v); got != want {
			t.Fatalf("pseudonymize(%q) = %s, want %s", v, got, want)
		}
	})
}
