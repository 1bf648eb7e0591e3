package runner_test

// prepare_oracle_test.go holds the runner's preparation stage to a plain-Go
// reference: for every builtin Labs challenge and every compliant
// alternative, the result table a run saves must equal, cell for cell, what
// the reference derives from the source table and the campaign's goal. The
// reference imports nothing from the dataflow engine. The generated scenarios
// carry no nulls, so the test first punches nulls into every column of every
// source table: the null filter then has rows to drop in every goal column,
// and the masks have null cells to leave alone.

import (
	"context"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/labs"
	"repro/internal/model"
	"repro/internal/runner"
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/workload"
)

// refToken is the pseudonymisation token: "pseu-" and the 16 hex digits of
// the value's FNV-64a hash, computed here from the published constants.
func refToken(v string) string {
	h := uint64(14695981039346656037)
	for i := 0; i < len(v); i++ {
		h ^= uint64(v[i])
		h *= 1099511628211
	}
	s := strconv.FormatUint(h, 16)
	for len(s) < 16 {
		s = "0" + s
	}
	return "pseu-" + s
}

// refGoalColumns lists every column the campaign's goal names.
func refGoalColumns(g model.Goal) []string {
	cols := append([]string{}, g.FeatureColumns...)
	cols = append(cols, g.LabelColumn, g.ValueColumn, g.TimeColumn, g.ItemColumn, g.TransactionColumn)
	cols = append(cols, g.GroupColumns...)
	var out []string
	for _, c := range cols {
		if c != "" {
			out = append(out, c)
		}
	}
	return out
}

// refPrepare computes the prepared rows of alt over src, in source partition
// order: rows null in any goal column are dropped when the composition cleans
// missing values, non-null personal string cells are replaced by a token or
// "***" under the composition's anonymiser, and every other cell passes
// through.
func refPrepare(src *storage.Table, g model.Goal, alt core.Alternative) []storage.Row {
	schema := src.Schema()
	var required []int
	if alt.Composition.HasCapability("clean_missing") {
		for _, c := range refGoalColumns(g) {
			required = append(required, schema.IndexOf(c))
		}
	}
	var mask func(string) string
	switch {
	case alt.Composition.HasCapability("pseudonymize"):
		mask = refToken
	case alt.Composition.HasCapability("anonymize_strict"):
		mask = func(string) string { return "***" }
	}
	var sensitive []int
	for i, f := range schema.Fields() {
		if mask != nil && f.Sensitivity >= storage.Personal && f.Type == storage.TypeString {
			sensitive = append(sensitive, i)
		}
	}
	var out []storage.Row
rows:
	for _, row := range src.Rows() {
		for _, c := range required {
			if row[c] == nil {
				continue rows
			}
		}
		nr := append(storage.Row{}, row...)
		for _, c := range sensitive {
			if nr[c] != nil {
				nr[c] = mask(nr[c].(string))
			}
		}
		out = append(out, nr)
	}
	return out
}

func TestPreparationMatchesOracle(t *testing.T) {
	data := storage.NewCatalog()
	gen := workload.NewGenerator(17)
	sz := workload.Sizing{Customers: 400, Meters: 3, Days: 3, Users: 60}
	for _, v := range workload.Verticals() {
		sc, err := gen.Generate(v, sz)
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Register(data); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range data.Names() {
		tbl, err := data.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		data.Replace(withNulls(t, tbl))
	}
	compiler, err := core.NewCompiler(data)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r, err := runner.New(data, runner.WithResultStore(st))
	if err != nil {
		t.Fatal(err)
	}

	ran, masked, cleaned := 0, 0, 0
	for _, ch := range labs.BuiltinChallenges() {
		campaign := ch.Campaign
		src, err := data.Lookup(campaign.Goal.TargetTable)
		if err != nil {
			t.Fatal(err)
		}
		alternatives, _, err := compiler.EnumerateAlternatives(campaign)
		if err != nil {
			t.Fatalf("%s: enumerate: %v", ch.ID, err)
		}
		for i, alt := range alternatives {
			if !alt.Compliant() {
				continue
			}
			report, err := r.Run(context.Background(), campaign, alt)
			if err != nil {
				t.Fatalf("%s alternative %d: run: %v", ch.ID, i, err)
			}
			ran++
			if alt.Composition.HasCapability("pseudonymize") || alt.Composition.HasCapability("anonymize_strict") {
				masked++
			}
			if alt.Composition.HasCapability("clean_missing") {
				cleaned++
			}
			wantRows := refPrepare(src, campaign.Goal, alt)
			if report.RowsProcessed != len(wantRows) {
				t.Errorf("%s alternative %d: RowsProcessed = %d, reference %d", ch.ID, i, report.RowsProcessed, len(wantRows))
			}
			got, err := st.ReadTable(runner.ResultTableName(campaign.Name))
			if err != nil {
				t.Fatalf("%s alternative %d: read result: %v", ch.ID, i, err)
			}
			want, err := storage.NewTable(got.Name(), got.Schema())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := want.AppendAll(wantRows); err != nil {
				t.Fatalf("%s alternative %d: reference rows: %v", ch.ID, i, err)
			}
			if !reflect.DeepEqual(got.Schema().Names(), src.Schema().Names()) {
				t.Fatalf("%s alternative %d: result columns %v, source %v", ch.ID, i, got.Schema().Names(), src.Schema().Names())
			}
			compareTables(t, ch.ID+" alternative "+strconv.Itoa(i), got, want)
		}
	}
	// The sweep must reach both preparation steps the oracle models.
	if ran == 0 || masked == 0 || cleaned == 0 {
		t.Fatalf("ran %d alternatives, %d masked, %d cleaned; want all three > 0", ran, masked, cleaned)
	}
	t.Logf("%d compliant alternatives checked (%d masked, %d cleaned)", ran, masked, cleaned)
}

// withNulls copies tbl with every field nullable and one cell of every fifth
// row nulled, the column cycling so that each column gets nulls.
func withNulls(t *testing.T, tbl *storage.Table) *storage.Table {
	t.Helper()
	fields := tbl.Schema().Fields()
	for i := range fields {
		fields[i].Nullable = true
	}
	out, err := storage.NewTable(tbl.Name(), storage.MustSchema(fields...))
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tbl.Rows() {
		nr := append(storage.Row{}, row...)
		if i%5 == 0 {
			nr[(i/5)%len(nr)] = nil
		}
		if err := out.Append(nr); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// compareTables requires got and want to hold the same cells, partition by
// partition and row by row.
func compareTables(t *testing.T, what string, got, want *storage.Table) {
	t.Helper()
	if got.Partitions() != want.Partitions() {
		t.Fatalf("%s: %d partitions, reference %d", what, got.Partitions(), want.Partitions())
	}
	for p := 0; p < got.Partitions(); p++ {
		g, _ := got.Partition(p)
		w, _ := want.Partition(p)
		if len(g) != len(w) {
			t.Fatalf("%s: partition %d has %d rows, reference %d", what, p, len(g), len(w))
		}
		for i := range g {
			if !reflect.DeepEqual(g[i], w[i]) {
				t.Fatalf("%s: partition %d row %d = %v, reference %v", what, p, i, g[i], w[i])
			}
		}
	}
}
