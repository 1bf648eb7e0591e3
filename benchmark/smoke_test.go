package main

import (
	"bytes"
	"context"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/storage"
)

// TestSmoke runs every workload at toy sizing, untraced and traced: outputs
// must verify, and the metric names and units must be exactly the ones
// BENCHMARK.json lists — no drift either way. Nothing here asserts a time.
func TestSmoke(t *testing.T) {
	c, err := loadContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the program has %d", names, len(workloads))
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name + "/untraced"
			want := c.EndToEnd
			if traced {
				name, want = w.name+"/traced", c.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				res, err := runWorkload(context.Background(), runConfig{
					workload: w.name, seed: 1, seconds: 0.01, traced: traced, dir: t.TempDir(), toy: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d errors=%v", res.Correct, res.Attempted, res.Failed, res.Errors)
				}
				if res.Meta.CorpusHash == "" || res.Meta.Samples < 1 || len(res.Meta.Sizing) == 0 {
					t.Errorf("incomplete _meta: %+v", res.Meta)
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("BENCHMARK.json metric %s was not emitted", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
					if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("metric %s is %v", m.Name, got.Value)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v; it must never be 0", m.Name, got.Value)
					}
				}
				if len(res.Metrics) != len(want) {
					var extra []string
					for n := range res.Metrics {
						if !slices.ContainsFunc(want, func(m contractMetric) bool { return m.Name == n }) {
							extra = append(extra, n)
						}
					}
					sort.Strings(extra)
					t.Errorf("emitted metrics missing from BENCHMARK.json: %v", extra)
				}
				if traced {
					if len(res.spans.durations(opSpanName)) == 0 {
						t.Error("traced run recorded no op span")
					}
					var buf bytes.Buffer
					if err := printResult(&buf, res); err != nil {
						t.Fatal(err)
					}
					last := strings.TrimSpace(buf.String())
					last = last[strings.LastIndexByte(last, '\n')+1:]
					if !strings.HasPrefix(last, `{"correct":true,"attempted":`) {
						t.Errorf("last line is not the result object: %.80s", last)
					}
				}
			})
		}
	}
}

// TestCorpusIsSeeded: same seed, same bytes; another seed, other bytes.
func TestCorpusIsSeeded(t *testing.T) {
	spec := tableSpec{Name: "t", Rows: 500, Columns: []columnSpec{
		{Name: "id", Type: storage.TypeInt, Gen: "serial"},
		{Name: "k", Type: storage.TypeString, Gen: "zipf", Card: 50, Skew: 1.2, Prefix: "u", Width: [2]int{6, 11}},
		{Name: "v", Type: storage.TypeFloat, Gen: "uniform", Card: 100, Step: 0.125, Nulls: 0.1},
	}}
	hash := func(seed int64) string {
		h := newCorpusHasher()
		tbl, err := generate(spec, seed, 2, h)
		if err != nil {
			t.Fatal(err)
		}
		nulls := 0
		tbl.Scan(func(r storage.Row) bool {
			if s := r[1].(string); len(s) < 6 || len(s) > 11 {
				t.Errorf("key %q outside the declared width", s)
			}
			if r[2] == nil {
				nulls++
			}
			return true
		})
		if nulls == 0 || nulls > 150 {
			t.Errorf("%d nulls in 500 cells at density 0.1", nulls)
		}
		return h.sum()
	}
	if hash(7) != hash(7) {
		t.Error("same seed produced different corpora")
	}
	if hash(7) == hash(8) {
		t.Error("different seeds produced the same corpus")
	}
}

// TestCheckOutputCatchesDifferences: the verification must not be vacuous.
func TestCheckOutputCatchesDifferences(t *testing.T) {
	want := [][]any{{"b", int64(2), 9.5}, {"a", int64(1), 3.25}}
	keys := []sortKey{{col: 2, desc: true}, {col: 0}}
	ref := canonical(want)
	if err := checkOutput(want, ref, keys); err != nil {
		t.Fatalf("identical output rejected: %v", err)
	}
	for name, got := range map[string][][]any{
		"wrong order":     {want[1], want[0]},
		"one ulp off":     {{"b", int64(2), math.Nextafter(9.5, 10)}, want[1]},
		"missing row":     {want[0]},
		"different count": {{"b", int64(3), 9.5}, want[1]},
	} {
		if err := checkOutput(got, ref, keys); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Op: 0, ID: 0, Parent: -1, Name: opSpanName, Start: 0, End: 100},
		{Op: 0, ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{Op: 0, ID: 2, Parent: 0, Name: "b", Start: 30, End: 90}, // overlaps a
	}}
	if self := tr.selfTimes(); self[0] != 20 {
		t.Errorf("op self time = %d, want 20", self[0])
	}
	if got := tr.unattributedShare(); got != 0.2 {
		t.Errorf("unattributed share = %v, want 0.2", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{100, 140, 70, 120, 80, 130, 75, 110, 90, 125}
	for _, c := range []struct {
		name         string
		a, b         []float64
		higherBetter bool
		want         string
	}{
		{"A/A", steady, steady, false, "unchanged"},
		{"latency up 20%", steady, scale(steady, 1.2), false, "worse"},
		{"latency down 20%", steady, scale(steady, 0.8), false, "better"},
		{"throughput down 20%", steady, scale(steady, 0.8), true, "worse"},
		{"throughput up 20%", steady, scale(steady, 1.2), true, "better"},
		{"up 5%, inside the bound", steady, scale(steady, 1.05), false, "unchanged"},
		{"spread wider than the bound", noisy, scale(noisy, 1.02), false, "unresolved"},
		{"past the bound but inside the spread", noisy, scale(noisy, 1.15), false, "unresolved"},
	} {
		if got, _ := verdict(c.a, c.b, c.higherBetter, 0.10); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestPercentiles(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 100; i++ {
		ds = append(ds, time.Duration(i))
	}
	if got := percentile(ds, 95); got != 95 {
		t.Errorf("p95 = %d", got)
	}
	if got := median(ds); got != 50 {
		t.Errorf("median = %d, want 50 (interpolated 50.5 truncated)", got)
	}
}
