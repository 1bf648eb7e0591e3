package runner_test

// golden_test.go pins what a run reports. For every compliant alternative of
// the builtin challenges, a clustering campaign and a reporting campaign that
// reads a saved result back from the store, it records the accuracy bits,
// every Details entry, RowsProcessed and the saved table's row count, segment
// count and row hash, and compares the whole sweep with
// testdata/golden_runs.txt. A change to how the runner moves prepared data
// between the engine, the analytics and the store must leave that file
// byte-identical. Run with -update to rewrite it.

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/labs"
	"repro/internal/model"
	"repro/internal/procedural"
	"repro/internal/runner"
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

const goldenRunsFile = "testdata/golden_runs.txt"

// goldenCampaigns returns the campaigns of one sweep, in run order: the
// builtin challenges, a clustering campaign (features without a label) and a
// reporting campaign over the retail challenge's saved result.
func goldenCampaigns() []*model.Campaign {
	var out []*model.Campaign
	for _, ch := range labs.BuiltinChallenges() {
		out = append(out, ch.Campaign)
	}
	out = append(out, &model.Campaign{
		Name: "segments", Vertical: "telco",
		Goal: model.Goal{
			Task: model.TaskClustering, TargetTable: "telco_customers",
			FeatureColumns: []string{"monthly_charge", "data_usage_gb", "tenure_months"},
		},
		Sources: []model.DataSource{{Table: "telco_customers", ContainsPersonalData: true, Region: "eu"}},
		Regime:  model.RegimePseudonymize,
	})
	baskets := runner.ResultTableName("retail-baskets")
	out = append(out, &model.Campaign{
		Name: "revenue-from-store", Vertical: "retail",
		Goal: model.Goal{
			Task: model.TaskReporting, TargetTable: baskets,
			ValueColumn: "unit_price", GroupColumns: []string{"category"},
		},
		Sources: []model.DataSource{{Table: baskets, Region: "eu"}},
		Regime:  model.RegimeNone,
	})
	return out
}

// goldenSweep runs every compliant alternative of goldenCampaigns over the
// scenarios generated at seed and sizing, and appends one block per run to
// out. With nulls set, every source table is first null-punched (withNulls)
// and each alternative runs with its clean_missing step taken out
// (withoutCleaning), so the analytics read null cells.
func goldenSweep(t *testing.T, out *strings.Builder, label string, seed int64, sz workload.Sizing, nulls bool) {
	t.Helper()
	data := storage.NewCatalog()
	gen := workload.NewGenerator(seed)
	for _, v := range workload.Verticals() {
		sc, err := gen.Generate(v, sz)
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Register(data); err != nil {
			t.Fatal(err)
		}
	}
	if nulls {
		for _, name := range data.Names() {
			tbl, err := data.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			data.Replace(withNulls(t, tbl))
		}
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	compiler, err := core.NewCompiler(data, core.WithDurableStore(st))
	if err != nil {
		t.Fatal(err)
	}
	r, err := runner.New(data, runner.WithSeed(seed), runner.WithResultStore(st))
	if err != nil {
		t.Fatal(err)
	}
	for _, campaign := range goldenCampaigns() {
		if _, err := data.Lookup(campaign.Goal.TargetTable); err != nil && !st.Has(campaign.Goal.TargetTable) {
			// The campaign it derives from saved no result in this sweep.
			fmt.Fprintf(out, "== %s %s: no table %s\n", label, campaign.Name, campaign.Goal.TargetTable)
			continue
		}
		alternatives, _, err := compiler.EnumerateAlternatives(campaign)
		if err != nil {
			t.Fatalf("%s %s: enumerate: %v", label, campaign.Name, err)
		}
		for i, alt := range alternatives {
			if !alt.Compliant() {
				continue
			}
			if nulls {
				alt = withoutCleaning(alt)
			}
			fmt.Fprintf(out, "== %s %s #%d %s\n", label, campaign.Name, i, alt.Fingerprint())
			report, err := r.Run(context.Background(), campaign, alt)
			if err != nil {
				fmt.Fprintf(out, "error %v\n", err)
				continue
			}
			fmt.Fprintf(out, "accuracy %016x\n", math.Float64bits(report.Measured[model.IndicatorAccuracy]))
			fmt.Fprintf(out, "rows_processed %d\n", report.RowsProcessed)
			keys := make([]string, 0, len(report.Details))
			for k := range report.Details {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(out, "detail %s=%s\n", k, report.Details[k])
			}
			name := runner.ResultTableName(campaign.Name)
			info, err := st.Info(name)
			if err != nil {
				t.Fatalf("%s %s #%d: %v", label, campaign.Name, i, err)
			}
			rows, err := st.Rows(name)
			if err != nil {
				t.Fatalf("%s %s #%d: %v", label, campaign.Name, i, err)
			}
			fmt.Fprintf(out, "saved rows=%d segments=%d hash=%016x\n", info.Rows, info.Segments, rowsHash(rows))
		}
	}
}

// withoutCleaning returns alt with every clean_missing step, and every
// dependency on one, removed from its composition.
func withoutCleaning(alt core.Alternative) core.Alternative {
	cleaning := map[string]bool{}
	for _, s := range alt.Composition.Steps {
		if s.Service.Capability == "clean_missing" {
			cleaning[s.ID] = true
		}
	}
	comp := &procedural.Composition{Campaign: alt.Composition.Campaign}
	for _, s := range alt.Composition.Steps {
		if cleaning[s.ID] {
			continue
		}
		var deps []string
		for _, d := range s.DependsOn {
			if !cleaning[d] {
				deps = append(deps, d)
			}
		}
		s.DependsOn = deps
		comp.Steps = append(comp.Steps, s)
	}
	alt.Composition = comp
	return alt
}

// rowsHash is an FNV-64a hash over every cell of rows in order, each cell
// written with its dynamic type so that 1, 1.0 and "1" differ.
func rowsHash(rows []storage.Row) uint64 {
	h := fnv.New64a()
	for _, row := range rows {
		for _, v := range row {
			fmt.Fprintf(h, "%T:%v|", v, v)
		}
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

func TestRunReportsMatchGolden(t *testing.T) {
	var out strings.Builder
	for _, seed := range []int64{1, 7} {
		goldenSweep(t, &out, fmt.Sprintf("seed=%d", seed), seed, workload.DefaultSizing(), false)
	}
	goldenSweep(t, &out, "nulls", 17, workload.Sizing{Customers: 400, Meters: 3, Days: 3, Users: 60}, true)
	got := out.String()

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenRunsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenRunsFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenRunsFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	block := ""
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if strings.HasPrefix(wantLines[i], "== ") {
			block = wantLines[i]
		}
		if gotLines[i] != wantLines[i] {
			t.Fatalf("run reports differ from %s at line %d (in %q):\n got: %s\nwant: %s",
				goldenRunsFile, i+1, block, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("run reports differ from %s: %d lines, golden %d", goldenRunsFile, len(gotLines), len(wantLines))
}
