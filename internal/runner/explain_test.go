package runner_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/labs"
	"repro/internal/model"
	"repro/internal/runner"
	"repro/internal/storage"
	"repro/internal/workload"
)

// TestExplainTelcoChurnMasksWithKernel pins the physical preparation plan
// of the telco-churn challenge's chosen pipeline: the null filter and the
// column mask fuse into one stage, and the mask names the columns it
// rewrites.
func TestExplainTelcoChurnMasksWithKernel(t *testing.T) {
	data := storage.NewCatalog()
	sc, err := workload.NewGenerator(17).Generate(workload.VerticalTelco, workload.Sizing{Customers: 400})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Register(data); err != nil {
		t.Fatal(err)
	}
	compiler, err := core.NewCompiler(data)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runner.New(data)
	if err != nil {
		t.Fatal(err)
	}
	var campaign *model.Campaign
	for _, ch := range labs.BuiltinChallenges() {
		if ch.ID == "telco-churn" {
			campaign = ch.Campaign
		}
	}
	if campaign == nil {
		t.Fatal("no telco-churn challenge")
	}
	result, err := compiler.Compile(campaign)
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.ExplainPlan(campaign, result.Chosen)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"as stage(filter→map_strings)", "MapStrings(mask sensitive columns [name])"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
}
