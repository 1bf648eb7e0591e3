package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/model"
)

// writeCampaignFile stores a small churn campaign JSON in a temp dir and
// returns its path.
func writeCampaignFile(t *testing.T) string {
	t.Helper()
	campaign := &model.Campaign{
		Name:     "cli-churn",
		Vertical: "telco",
		Goal: model.Goal{
			Task:           model.TaskClassification,
			TargetTable:    "telco_customers",
			LabelColumn:    "churned",
			FeatureColumns: []string{"tenure_months", "support_calls"},
		},
		Sources: []model.DataSource{{Table: "telco_customers", ContainsPersonalData: true, Region: "eu"}},
		Objectives: []model.Objective{
			{Indicator: model.IndicatorAccuracy, Comparison: model.AtLeast, Target: 0.7, Hard: true},
		},
		Regime: model.RegimePseudonymize,
	}
	path := filepath.Join(t.TempDir(), "campaign.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := campaign.EncodeJSON(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(args, &buf)
	return buf.String(), err
}

func TestCLIValidation(t *testing.T) {
	if _, err := runCLI(t); err == nil {
		t.Error("missing command must fail")
	}
	if _, err := runCLI(t, "compile"); err == nil {
		t.Error("missing -campaign must fail")
	}
	campaign := writeCampaignFile(t)
	if _, err := runCLI(t, "-campaign", campaign, "-scenario", "plutonium", "compile"); err == nil {
		t.Error("unknown scenario must fail")
	}
	if _, err := runCLI(t, "-campaign", campaign, "frobnicate"); err == nil {
		t.Error("unknown command must fail")
	}
	if _, err := runCLI(t, "-campaign", filepath.Join(t.TempDir(), "missing.json"), "compile"); err == nil {
		t.Error("missing campaign file must fail")
	}
}

func TestCLICompile(t *testing.T) {
	campaign := writeCampaignFile(t)
	out, err := runCLI(t, "-campaign", campaign, "-customers", "300", "compile")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"design space:", "chosen:", "deployment artifacts:", "plan.json"} {
		if !strings.Contains(out, want) {
			t.Errorf("compile output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIRunWithRepository(t *testing.T) {
	campaign := writeCampaignFile(t)
	repoDir := t.TempDir()
	out, err := runCLI(t, "-campaign", campaign, "-customers", "300", "-repository", repoDir, "run")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"executed:", "objective evaluation:", "accuracy"} {
		if !strings.Contains(out, want) {
			t.Errorf("run output missing %q:\n%s", want, out)
		}
	}
	// The repository must now contain the persisted campaign and run.
	entries, err := os.ReadDir(filepath.Join(repoDir, "runs", "cli-churn"))
	if err != nil || len(entries) == 0 {
		t.Errorf("run record not persisted: %v, %v", entries, err)
	}
}

func TestCLIExplain(t *testing.T) {
	campaign := writeCampaignFile(t)
	out, err := runCLI(t, "-campaign", campaign, "-customers", "300", "explain")
	if err != nil {
		t.Fatal(err)
	}
	// The chosen churn pipeline prepares data with a null-dropping filter
	// plus the MapStrings column mask, so the physical plan must show them
	// fused into a single stage over the source table.
	for _, want := range []string{"PhysicalPlan(combine=on", "FusedStage(ops=", "Source(telco_customers"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}

// TestCLIExplainNamesWideStrategies drives explain over a forecasting
// campaign, whose analytics stage sorts by the time column: the rendered
// physical plan must name the wide-operator strategy the engine chose.
func TestCLIExplainNamesWideStrategies(t *testing.T) {
	campaign := &model.Campaign{
		Name:     "cli-forecast",
		Vertical: "energy",
		Goal: model.Goal{
			Task:        model.TaskForecasting,
			TargetTable: "meter_readings",
			ValueColumn: "kwh",
			TimeColumn:  "read_at",
		},
		Sources: []model.DataSource{{Table: "meter_readings", ContainsPersonalData: true, Region: "eu"}},
		Regime:  model.RegimePseudonymize,
	}
	path := filepath.Join(t.TempDir(), "forecast.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := campaign.EncodeJSON(f); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, "-scenario", "energy", "-campaign", path, "explain")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"preparation stage:",
		"analytics stage (forecasting):",
		"shufflePartitions=",
		"Sort([{read_at false}]) [range-shuffle(parts=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}

// TestCLIExplainBudgetedSortStrategy drives explain with a one-byte memory
// budget over the forecasting campaign: the rendered physical plan must show
// the budget in the header and name the spill-aware sort strategy — an
// external merge with its statically-bounded run count — instead of the
// in-memory columnar core.
func TestCLIExplainBudgetedSortStrategy(t *testing.T) {
	campaign := &model.Campaign{
		Name:     "cli-forecast-budget",
		Vertical: "energy",
		Goal: model.Goal{
			Task:        model.TaskForecasting,
			TargetTable: "meter_readings",
			ValueColumn: "kwh",
			TimeColumn:  "read_at",
		},
		Sources: []model.DataSource{{Table: "meter_readings", ContainsPersonalData: true, Region: "eu"}},
		Regime:  model.RegimePseudonymize,
	}
	path := filepath.Join(t.TempDir(), "forecast-budget.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := campaign.EncodeJSON(f); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, "-scenario", "energy", "-campaign", path, "-memory-budget", "1", "explain")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"memoryBudget=1B",
		"Sort([{read_at false}])",
		"[external merge (runs≤",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("budgeted explain output missing %q:\n%s", want, out)
		}
	}
	// The unbudgeted run of the same campaign names the in-memory core.
	out, err = runCLI(t, "-scenario", "energy", "-campaign", path, "explain")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "[columnar in-memory]") {
		t.Errorf("unbudgeted explain must name the columnar sort core:\n%s", out)
	}
}

// TestCLIExplainClusteringShowsPreparationOnly drives explain over a
// clustering campaign: k-means runs in-process on the prepared rows, not on
// the dataflow engine, so — as for classification — the rendered plan is the
// preparation stage alone, with no analytics-stage section.
func TestCLIExplainClusteringShowsPreparationOnly(t *testing.T) {
	campaign := &model.Campaign{
		Name:     "cli-segments",
		Vertical: "telco",
		Goal: model.Goal{
			Task:           model.TaskClustering,
			TargetTable:    "telco_customers",
			FeatureColumns: []string{"monthly_charge", "data_usage_gb", "tenure_months"},
		},
		Sources: []model.DataSource{{Table: "telco_customers", ContainsPersonalData: true, Region: "eu"}},
		Regime:  model.RegimePseudonymize,
	}
	path := filepath.Join(t.TempDir(), "segments.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := campaign.EncodeJSON(f); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, "-campaign", path, "-customers", "300", "explain")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "preparation stage:") {
		t.Errorf("clustering explain output missing the preparation stage:\n%s", out)
	}
	if strings.Contains(out, "analytics stage (clustering)") {
		t.Errorf("clustering runs off-engine; explain must not render an analytics stage:\n%s", out)
	}
}

func TestCLIAlternativesInterferencePlan(t *testing.T) {
	campaign := writeCampaignFile(t)
	out, err := runCLI(t, "-campaign", campaign, "-customers", "300", "alternatives")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "alternatives for cli-churn") || !strings.Contains(out, "non-compliant") {
		t.Errorf("alternatives output unexpected:\n%s", out)
	}

	out, err = runCLI(t, "-campaign", campaign, "-customers", "300", "interference")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "strict") || !strings.Contains(out, "pseudonymize") {
		t.Errorf("interference output unexpected:\n%s", out)
	}

	out, err = runCLI(t, "-campaign", campaign, "-customers", "300", "-strategy", "greedy", "plan")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "strategy:  greedy") || !strings.Contains(out, "explored:") {
		t.Errorf("plan output unexpected:\n%s", out)
	}
	if _, err := runCLI(t, "-campaign", campaign, "-customers", "300", "-strategy", "psychic", "plan"); err == nil {
		t.Error("unknown strategy must fail")
	}
}

func TestCLITablesSmoke(t *testing.T) {
	campaign := writeCampaignFile(t)
	storeDir := filepath.Join(t.TempDir(), "tables")

	// tables without a store directory must fail loudly.
	if _, err := runCLI(t, "tables"); err == nil {
		t.Error("tables without -store-dir must fail")
	}

	// A run with -store-dir saves the prepared dataset as a durable table.
	if _, err := runCLI(t, "-campaign", campaign, "-customers", "300", "-store-dir", storeDir, "run"); err != nil {
		t.Fatalf("run: %v", err)
	}

	// The listing survives the process "restart" (a fresh run() invocation
	// reopens the store from disk through WAL recovery).
	out, err := runCLI(t, "-customers", "300", "-store-dir", storeDir, "tables")
	if err != nil {
		t.Fatalf("tables: %v", err)
	}
	if !strings.Contains(out, "results/cli-churn") {
		t.Fatalf("table listing missing saved table:\n%s", out)
	}

	// Scanning the saved table with a predicate reports pushdown stats.
	out, err = runCLI(t, "-customers", "300", "-store-dir", storeDir,
		"-table", "results/cli-churn", "-filter", "customer_id >= 0", "tables")
	if err != nil {
		t.Fatalf("tables scan: %v", err)
	}
	if !strings.Contains(out, "scanned:") || !strings.Contains(out, "segments:") {
		t.Fatalf("scan output missing stats:\n%s", out)
	}
	if strings.Contains(out, "scanned:  0 rows") {
		t.Fatalf("scan returned no rows:\n%s", out)
	}

	// An unknown table and a malformed filter both surface as errors.
	if _, err := runCLI(t, "-store-dir", storeDir, "-table", "ghost", "tables"); err == nil {
		t.Error("scan of unknown table must fail")
	}
	if _, err := runCLI(t, "-store-dir", storeDir,
		"-table", "results/cli-churn", "-filter", "nope", "tables"); err == nil {
		t.Error("malformed filter must fail")
	}
}

func TestParseVertical(t *testing.T) {
	for _, name := range []string{"telco", "retail", "energy", "web", "finance"} {
		if _, err := parseVertical(name); err != nil {
			t.Errorf("parseVertical(%s): %v", name, err)
		}
	}
	if _, err := parseVertical("space"); err == nil {
		t.Error("unknown vertical must fail")
	}
}
