package dataflow

// equivalence_test.go is the randomized plan-equivalence suite: it generates
// random schemas (including nullable columns with real nulls), random rows
// and random operator chains, executes each plan under every engine arm —
// the defaults plus one arm per live planning switch — and requires every arm
// to match the reference interpreter (reference_test.go). Any divergence of a
// batch kernel, a shuffle, a spill path or a strategy fails here with the
// generating seed in the test name.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/storage"
)

// genSchema builds a random schema. Column 0 is always a non-nullable int and
// column 1 a nullable float, so every generated plan has a join/sort/filter
// key and a numeric aggregation target to work with.
func genSchema(rng *rand.Rand) *storage.Schema {
	types := []storage.FieldType{
		storage.TypeInt, storage.TypeFloat, storage.TypeString,
		storage.TypeBool, storage.TypeTime,
	}
	fields := []storage.Field{
		{Name: "c0", Type: storage.TypeInt},
		{Name: "c1", Type: storage.TypeFloat, Nullable: true},
	}
	for i := 2; i < 2+rng.Intn(4); i++ {
		fields = append(fields, storage.Field{
			Name:     fmt.Sprintf("c%d", i),
			Type:     types[rng.Intn(len(types))],
			Nullable: rng.Intn(2) == 0,
		})
	}
	return storage.MustSchema(fields...)
}

func genValue(rng *rand.Rand, f storage.Field) storage.Value {
	if f.Nullable && rng.Float64() < 0.2 {
		return nil
	}
	switch f.Type {
	case storage.TypeInt, storage.TypeTime:
		return int64(rng.Intn(400) - 100)
	case storage.TypeFloat:
		return float64(rng.Intn(2000)-1000) / 8
	case storage.TypeString:
		return fmt.Sprintf("s%02d", rng.Intn(40))
	case storage.TypeBool:
		return rng.Intn(2) == 0
	default:
		return nil
	}
}

func genRows(rng *rand.Rand, schema *storage.Schema, n int) []storage.Row {
	rows := make([]storage.Row, n)
	for i := range rows {
		row := make(storage.Row, schema.Len())
		for c := range row {
			row[c] = genValue(rng, schema.Field(c))
		}
		rows[i] = row
	}
	return rows
}

// genChain appends 1..5 random narrow operators to d, then half the time one
// wide operator, returning the plan. Every closure is pure and deterministic.
func genChain(rng *rand.Rand, d *Dataset) *Dataset {
	ops := 1 + rng.Intn(5)
	for i := 0; i < ops; i++ {
		schema := d.Schema()
		switch rng.Intn(5) {
		case 0: // filter on a random column, via the typed accessors
			col := schema.Field(rng.Intn(schema.Len())).Name
			cut := float64(rng.Intn(100) - 50)
			d = d.Filter("f "+col, func(r Record) (bool, error) {
				return r.IsNull(col) || r.Float(col) >= cut, nil
			})
		case 1: // project a random non-empty prefix-shuffled subset
			names := schema.Names()
			rng.Shuffle(len(names), func(a, b int) { names[a], names[b] = names[b], names[a] })
			d = d.Project(names[:1+rng.Intn(len(names))]...)
		case 2: // derived column from c0/whatever numeric is around
			src := schema.Field(rng.Intn(schema.Len())).Name
			name := fmt.Sprintf("d%d", i)
			d = d.WithColumn(storage.Field{Name: name, Type: storage.TypeFloat, Nullable: true},
				func(r Record) (storage.Value, error) {
					if r.IsNull(src) {
						return nil, nil
					}
					return r.Float(src)*3 + 1, nil
				})
		case 3: // typed rewrite of whichever string columns survive
			var cols []string
			for _, f := range schema.Fields() {
				if f.Type == storage.TypeString {
					cols = append(cols, f.Name)
				}
			}
			if len(cols) > 0 {
				d = d.MapStrings("tag", cols, func(s string) string { return "m:" + s })
			}
		case 4: // typed null filter on zero to two columns, nullable or not;
			// a column a gathering operator rebuilt after an earlier null
			// filter is nullable but carries no bitmap
			cols := make([]string, rng.Intn(3))
			for j := range cols {
				cols[j] = schema.Field(rng.Intn(schema.Len())).Name
			}
			d = d.FilterNonNull("non-null "+strings.Join(cols, ","), cols)
		}
	}
	// Terminal wide operator half the time, to drive the shuffle paths. The
	// sort needs its key columns to have survived any projections above.
	schema := d.Schema()
	switch rng.Intn(4) {
	case 0:
		d = genGroupBy(rng, d)
	case 1:
		if schema.Has("c0") && schema.Has("c1") {
			d = d.Sort(SortOrder{Column: "c0"}, SortOrder{Column: "c1", Descending: true})
		}
	}
	return d
}

// genGroupBy groups d by one or two of its columns and draws one to four
// aggregations, of any of the three kinds, over any of its columns. Each
// aggregation is named after its position, so output names never collide.
func genGroupBy(rng *rand.Rand, d *Dataset) *Dataset {
	names := d.Schema().Names()
	rng.Shuffle(len(names), func(a, b int) { names[a], names[b] = names[b], names[a] })
	keys := names[:1+rng.Intn(min(2, len(names)))]
	kinds := []AggKind{AggCount, AggSum, AggAvg}
	aggs := make([]Aggregation, 1+rng.Intn(4))
	for j := range aggs {
		a := Aggregation{Kind: kinds[rng.Intn(len(kinds))], As: fmt.Sprintf("a%d", j)}
		if a.Kind != AggCount {
			a.Column = names[rng.Intn(len(names))]
		}
		aggs[j] = a
	}
	return d.GroupBy(keys...).Agg(aggs...)
}

// genPlan builds the randomized suite's plan for seed. rows < 0 keeps the row
// count the seed draws (0..299); otherwise rows (capped at 4095) replaces it.
func genPlan(seed int64, rows int) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	schema := genSchema(rng)
	n := rng.Intn(300)
	if rows >= 0 {
		n = rows % 4096
	}
	data := genRows(rng, schema, n)
	parts := 1 + rng.Intn(5)
	return genChain(rng, refFromRows("equiv", schema, data, parts))
}

// engineArm is one engine configuration the suite runs every plan under.
type engineArm struct {
	name string
	e    *Engine
}

// engineArms builds the defaults plus one arm per live planning switch, each
// over an identical fresh cluster (same seed, no failure injection). The
// spill arm's one-byte budget forces every batch a wide operator accumulates
// through the compressed spill codec to disk. Every arm checks every batch
// every operator returns with checkOperatorBatch.
func engineArms(t testing.TB, opts ...EngineOption) []engineArm {
	t.Helper()
	build := func(extra ...EngineOption) *Engine {
		c, err := cluster.New(cluster.Uniform(2, 2, 0))
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(c, append(append([]EngineOption{}, opts...), extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		e.checkBatch = checkOperatorBatch
		return e
	}
	return []engineArm{
		{"default", build()},
		{"spill", build(WithMemoryBudget(1))},
		{"uncombined", build(WithMapSideCombine(false))},
		{"shuffle-join", build(withBroadcastThreshold(-1))},
	}
}

// checkOperatorBatch holds one operator's output batch to the batch
// invariants and to the operator's output schema.
func checkOperatorBatch(schema *storage.Schema, b *storage.ColumnBatch) error {
	if err := storage.ValidateBatch(b); err != nil {
		return err
	}
	if !b.Schema().Equal(schema) {
		return fmt.Errorf("batch schema %s, operator schema %s", b.Schema(), schema)
	}
	return nil
}

// checkArms runs plan under every arm, requires every batch each arm emits
// to pass storage.ValidateBatch, each arm to match the reference interpreter
// and the spill arm to shuffle exactly the rows the default arm does, and
// returns the results by arm name.
func checkArms(t testing.TB, plan *Dataset, opts ...EngineOption) map[string]*Result {
	t.Helper()
	want, err := reference(plan)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	results := map[string]*Result{}
	for _, arm := range engineArms(t, opts...) {
		res, err := collectValidated(arm.e, plan)
		if err != nil {
			t.Fatalf("%s: %v", arm.name, err)
		}
		if !res.Schema.Equal(plan.Schema()) {
			t.Fatalf("%s: schema %s, plan schema %s", arm.name, res.Schema, plan.Schema())
		}
		want.check(t, arm.name, res)
		results[arm.name] = res
	}
	if s, d := results["spill"].Stats.ShuffledRows, results["default"].Stats.ShuffledRows; s != d {
		t.Errorf("spill arm ShuffledRows = %d, default arm %d", s, d)
	}
	return results
}

// collectValidated is Collect through CollectBatches, failing on the first
// output batch that breaks a batch invariant.
func collectValidated(e *Engine, plan *Dataset) (*Result, error) {
	br, err := e.CollectBatches(context.Background(), plan)
	if err != nil {
		return nil, err
	}
	res := &Result{Schema: br.Schema, Stats: br.Stats}
	for i, b := range br.Batches {
		if err := storage.ValidateBatch(b); err != nil {
			return nil, fmt.Errorf("output batch %d: %w", i, err)
		}
		if !b.Schema().Equal(br.Schema) {
			return nil, fmt.Errorf("output batch %d has schema %s, result %s", i, b.Schema(), br.Schema)
		}
		res.Rows = append(res.Rows, b.Rows()...)
	}
	if len(res.Rows) != br.Len() {
		return nil, fmt.Errorf("batches hold %d rows, Len reports %d", len(res.Rows), br.Len())
	}
	return res, nil
}

// TestOperatorBatchCheck pins the batch hook: production engines run
// without it, it sees the output of operators below the plan's root, and the
// engine arms use it, so a group-by output broken in a column a projection
// then drops still fails the suite.
func TestOperatorBatchCheck(t *testing.T) {
	schema := storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeString},
		storage.Field{Name: "v", Type: storage.TypeFloat, Nullable: true},
	)
	rows := make([]storage.Row, 200)
	for i := range rows {
		rows[i] = storage.Row{fmt.Sprintf("k%d", i%17), float64(i) / 4}
	}
	plan := refFromRows("hook", schema, rows, 3).
		GroupBy("k").Agg(Sum("v"), Count()).
		Project("k", "sum_v")

	c, err := cluster.New(cluster.Uniform(2, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(c)
	if err != nil {
		t.Fatal(err)
	}
	if e.checkBatch != nil {
		t.Fatal("a production engine has a batch hook")
	}
	seen := map[string]int{}
	e.checkBatch = func(schema *storage.Schema, b *storage.ColumnBatch) error {
		seen[schema.String()]++
		return checkOperatorBatch(schema, b)
	}
	if _, err := e.Collect(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*storage.Schema{schema, plan.node.children()[0].schema(), plan.Schema()} {
		if seen[s.String()] == 0 {
			t.Errorf("hook never saw a batch of schema %s; saw %v", s, seen)
		}
	}
	checkArms(t, plan)
}

func TestRandomizedPlanEquivalence(t *testing.T) {
	var totalSpilled int64
	for seed := int64(0); seed < 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			plan := genPlan(seed, -1)
			if err := plan.Err(); err != nil {
				t.Fatalf("generated plan invalid: %v", err)
			}
			s := checkArms(t, plan)["spill"].Stats
			if s.SpilledBatches > 0 && (s.SpilledBytes == 0 || s.SpillFilePeakBytes == 0) {
				t.Errorf("spilled %d batches but reported %dB written, %dB file peak",
					s.SpilledBatches, s.SpilledBytes, s.SpillFilePeakBytes)
			}
			totalSpilled += s.SpilledBatches
		})
	}
	// With a one-byte budget, any seed whose plan reaches a wide operator
	// must have spilled; across 40 seeds that must have happened.
	if totalSpilled == 0 {
		t.Error("spill arm never spilled a batch across the whole suite")
	}
}

// FuzzPlanEquivalence fuzzes the suite's generator — its seed and the row
// count of the generated source — and checks every engine arm against the
// reference interpreter. The seed corpus is the randomized suite's seeds at
// their own row counts.
func FuzzPlanEquivalence(f *testing.F) {
	for seed := int64(0); seed < 40; seed++ {
		f.Add(seed, -1)
	}
	f.Fuzz(func(t *testing.T, seed int64, rows int) {
		plan := genPlan(seed, rows)
		if err := plan.Err(); err != nil {
			t.Fatalf("generated plan invalid: %v", err)
		}
		checkArms(t, plan)
	})
}

// TestFilterUnfusedVectorizedEquivalence drives closure-Filter stages over
// larger inputs than the randomized suite: a Sort between the two Filters
// keeps them from fusing, so each runs as its own one-operator batch-kernel
// job, narrowing a selection through zero-copy batch views, and every arm
// must keep exactly the rows the reference keeps.
func TestFilterUnfusedVectorizedEquivalence(t *testing.T) {
	for seed := int64(300); seed < 306; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			schema := genSchema(rng)
			rows := genRows(rng, schema, 200+rng.Intn(400))
			cut := float64(rng.Intn(100) - 50)
			plan := refFromRows("filterequiv", schema, rows, 1+rng.Intn(5)).
				Filter("c0 odd", func(r Record) (bool, error) { return r.Int("c0")%2 != 0, nil }).
				Sort(SortOrder{Column: "c0"}).
				Filter("c1 null or >= cut", func(r Record) (bool, error) {
					return r.IsNull("c1") || r.Float("c1") >= cut, nil
				})
			if res := checkArms(t, plan)["default"]; res.Stats.Batches == 0 || res.Stats.FusedStages != 0 {
				t.Errorf("Filters processed %d batches in %d fused stages, want some batches and no fused stage",
					res.Stats.Batches, res.Stats.FusedStages)
			}
		})
	}
}

// TestWithColumnUnfusedVectorizedEquivalence drives WithColumn stages over
// larger inputs than the randomized suite: closures read zero-copy batch
// views and their values are appended into typed vectors, the two fused into
// one stage, and every arm must reproduce the reference exactly.
func TestWithColumnUnfusedVectorizedEquivalence(t *testing.T) {
	for seed := int64(400); seed < 406; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			schema := genSchema(rng)
			rows := genRows(rng, schema, 200+rng.Intn(400))
			plan := refFromRows("columnequiv", schema, rows, 1+rng.Intn(5)).
				WithColumn(storage.Field{Name: "scaled", Type: storage.TypeFloat, Nullable: true},
					func(r Record) (storage.Value, error) {
						if r.IsNull("c1") {
							return nil, nil
						}
						return r.Float("c1") * 3, nil
					}).
				WithColumn(storage.Field{Name: "large", Type: storage.TypeBool},
					func(r Record) (storage.Value, error) { return r.Float("scaled") > 25, nil })
			if res := checkArms(t, plan)["default"]; res.Stats.Batches == 0 || res.Stats.FusedStages != 1 {
				t.Errorf("WithColumns processed %d batches in %d fused stages, want some batches in one",
					res.Stats.Batches, res.Stats.FusedStages)
			}
		})
	}
}

// TestMapStringsEquivalence drives MapStrings over several nullable string
// columns (and, behind the filter, the non-nullable one too), behind a filter
// (so the kernel builds its vectors from a pending selection and gathers only
// the pass-through columns, or shares them when the filter keeps every row)
// or ahead of one, under every arm.
func TestMapStringsEquivalence(t *testing.T) {
	schema := storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeInt},
		storage.Field{Name: "a", Type: storage.TypeString, Nullable: true},
		storage.Field{Name: "f", Type: storage.TypeFloat, Nullable: true},
		storage.Field{Name: "b", Type: storage.TypeString},
		storage.Field{Name: "c", Type: storage.TypeString, Nullable: true},
	)
	tag := func(s string) string { return "m:" + s }
	for seed := int64(500); seed < 508; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			keepAll := seed%4 == 2
			keep := func(r Record) (bool, error) { return keepAll || r.Int("k")%3 != 0, nil }
			rng := rand.New(rand.NewSource(seed))
			src := refFromRows("maskequiv", schema, genRows(rng, schema, 200+rng.Intn(400)), 1+rng.Intn(5))
			var plan *Dataset
			if seed%2 == 0 {
				plan = src.Filter("k%3", keep).MapStrings("tag", []string{"c", "b", "a"}, tag)
			} else {
				plan = src.MapStrings("tag", []string{"a", "c"}, tag).Filter("k%3", keep)
			}
			checkArms(t, plan)
		})
	}
}

// TestSortEquivalenceHeavyDuplicates is the sort-focused arm of the suite:
// random multi-key sorts over schemas whose key columns carry heavy
// duplicates (and nulls), under every arm — the one-byte-budget arm sorts as
// an external merge. All must match the reference's stable sort row for row:
// a unique id column makes any stability drift between the typed kernels,
// the range shuffle and the loser-tree merge visible.
func TestSortEquivalenceHeavyDuplicates(t *testing.T) {
	var externalRuns int64
	for seed := int64(100); seed < 120; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			schema := storage.MustSchema(
				storage.Field{Name: "k", Type: storage.TypeInt, Nullable: true},
				storage.Field{Name: "g", Type: storage.TypeString},
				storage.Field{Name: "f", Type: storage.TypeFloat, Nullable: true},
				storage.Field{Name: "b", Type: storage.TypeBool},
				storage.Field{Name: "id", Type: storage.TypeInt},
			)
			n := 200 + rng.Intn(1800)
			rows := make([]storage.Row, n)
			for i := range rows {
				var k storage.Value
				if rng.Intn(8) > 0 {
					k = int64(rng.Intn(4)) // 4-value domain: ties everywhere
				}
				var f storage.Value
				if rng.Intn(10) > 0 {
					f = float64(rng.Intn(6)) / 2
				}
				rows[i] = storage.Row{
					k,
					fmt.Sprintf("g%d", rng.Intn(3)),
					f,
					rng.Intn(2) == 0,
					int64(i),
				}
			}
			orders := []SortOrder{
				{Column: "k"},
				{Column: "g", Descending: rng.Intn(2) == 0},
				{Column: "f", Descending: rng.Intn(2) == 0},
				{Column: "b"},
			}
			plan := refFromRows("sortequiv", schema, rows, 1+rng.Intn(6)).Sort(orders...)
			results := checkArms(t, plan)
			for name, res := range results {
				if res.Stats.ShuffledRows != results["default"].Stats.ShuffledRows {
					t.Errorf("%s ShuffledRows = %d, default %d", name, res.Stats.ShuffledRows, results["default"].Stats.ShuffledRows)
				}
			}
			spill := results["spill"].Stats
			externalRuns += spill.SortRuns
			if spill.SortRuns > 0 && spill.SortMergedBatches == 0 {
				t.Error("external sort reported runs but no merged batches")
			}
		})
	}
	if externalRuns == 0 {
		t.Error("the one-byte-budget arm never sorted through external runs across the suite")
	}
}

// TestGroupByEquivalenceForcedSpill is the aggregation-focused arm of the
// suite: high-cardinality group-bys with every aggregation kind, run
// non-combined so rows cross the shuffle raw and the reduce side owns all
// group state. Every arm must match the reference; the one-byte-budget arm
// flushes its group state through the spill sub-partitions every epoch, so
// matching also pins the spill path's merge. Float inputs are multiples of
// 1/8 so re-grouped partial sums stay exact.
func TestGroupByEquivalenceForcedSpill(t *testing.T) {
	var spilledParts int64
	for seed := int64(200); seed < 210; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			schema := storage.MustSchema(
				storage.Field{Name: "k", Type: storage.TypeInt},
				storage.Field{Name: "v", Type: storage.TypeFloat, Nullable: true},
				storage.Field{Name: "s", Type: storage.TypeString, Nullable: true},
			)
			keys := 1000 + rng.Intn(2000) // high cardinality: most groups are tiny
			n := 4000 + rng.Intn(4000)
			rows := make([]storage.Row, n)
			for i := range rows {
				var v storage.Value
				if rng.Intn(10) > 0 {
					v = float64(rng.Intn(2000)-1000) / 8
				}
				var s storage.Value
				if rng.Intn(12) > 0 {
					s = fmt.Sprintf("s%03d", rng.Intn(200))
				}
				rows[i] = storage.Row{int64(rng.Intn(keys)), v, s}
			}
			// Enough source partitions that every shuffle bucket receives its
			// rows across several batches: the spilling aggregation flushes at
			// batch granularity, so its resident peak is one epoch's groups,
			// not the bucket's.
			plan := refFromRows("aggequiv", schema, rows, 6+rng.Intn(3)).
				GroupBy("k").
				Agg(Count(), Sum("v"), Avg("v"), Sum("s"), Avg("s"))

			results := checkArms(t, plan, WithMapSideCombine(false))
			for name, res := range results {
				if res.Stats.AggGroups != results["default"].Stats.AggGroups {
					t.Errorf("%s AggGroups = %d, default %d", name, res.Stats.AggGroups, results["default"].Stats.AggGroups)
				}
			}
			spill := results["spill"].Stats
			if spill.AggSpilledPartitions == 0 {
				t.Error("one-byte budget never spilled aggregation state")
			}
			spilledParts += spill.AggSpilledPartitions
			if spill.SpilledBytes > spill.SpillLogicalBytes {
				t.Errorf("agg spill: physical %dB exceeds logical %dB", spill.SpilledBytes, spill.SpillLogicalBytes)
			}
			// The spilling run must hold less state resident than the whole
			// bucket's groups need. Its peak is one flush epoch (the groups of
			// aggBudgetCheckRows rows) or one sub-partition's merge. Each
			// aggregation's state is a fixed width per group, so the margin is
			// the share of a bucket's groups one epoch sees: with at least
			// 1000 keys over 4 buckets, at most 1−e^(−256/250) ≈ 64%.
			inMem := results["default"].Stats
			if spill.AggPeakResidentBytes <= 0 {
				t.Error("spill run reported no aggregation peak")
			}
			if 4*spill.AggPeakResidentBytes > 3*inMem.AggPeakResidentBytes {
				t.Errorf("spill peak %dB not bounded by three quarters of the in-memory peak %dB",
					spill.AggPeakResidentBytes, inMem.AggPeakResidentBytes)
			}
		})
	}
	if spilledParts == 0 {
		t.Error("forced-spill arm never merged a spill sub-partition across the suite")
	}
}
