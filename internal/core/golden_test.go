package core_test

// golden_test.go pins what the compiler produces. For the five builtin
// challenges, and for the privacy-regime variants of the churn and fraud
// challenges that Figure 1 sweeps, it records every alternative's
// fingerprint, deployment plan, compliance report, estimates and evaluation
// (floats as their bits) plus the chosen index, and compares the whole sweep
// with testdata/golden_compile.txt. A change to how the compiler derives or
// reuses composition facts must leave that file byte-identical. Run with
// -update to rewrite it.

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/labs"
	"repro/internal/model"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

const goldenCompileFile = "testdata/golden_compile.txt"

// goldenCompileCampaigns returns the campaigns Tables 1–3 and Figure 1
// compile: every builtin challenge as declared, then the churn and fraud
// challenges under every privacy regime.
func goldenCompileCampaigns() []*model.Campaign {
	var out []*model.Campaign
	byID := map[string]*model.Campaign{}
	for _, ch := range labs.BuiltinChallenges() {
		out = append(out, ch.Campaign)
		byID[ch.ID] = ch.Campaign
	}
	for _, id := range []string{"telco-churn", "payment-fraud"} {
		for _, regime := range model.Regimes() {
			variant := byID[id].Clone()
			variant.Regime = regime
			out = append(out, variant)
		}
	}
	return out
}

func bits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

// writeAlternative appends one alternative's block to out.
func writeAlternative(out *strings.Builder, alt core.Alternative) {
	p := alt.Plan
	fmt.Fprintf(out, "#%d %s\n", alt.Index, alt.Fingerprint())
	fmt.Fprintf(out, "plan platform=%s region=%s parallelism=%d nodes=%d slots=%d rows=%d cost=%s latency=%s freshness=%s\n",
		p.Platform, p.Region, p.Parallelism, p.Nodes, p.SlotsPerNode, p.InputRows,
		bits(p.EstimatedCost), bits(p.EstimatedLatencyMillis), bits(p.EstimatedFreshnessSeconds))
	steps := make([]string, len(p.Steps))
	for i, s := range p.Steps {
		steps[i] = fmt.Sprintf("%s:%s/%d", s.StepID, s.ServiceID, s.Parallelism)
	}
	fmt.Fprintf(out, "steps %s\n", strings.Join(steps, " "))
	indicators := make([]string, 0, len(alt.Estimates))
	for k := range alt.Estimates {
		indicators = append(indicators, string(k))
	}
	sort.Strings(indicators)
	for _, k := range indicators {
		fmt.Fprintf(out, "estimate %s=%s\n", k, bits(alt.Estimates[model.Indicator(k)]))
	}
	fmt.Fprintf(out, "compliant=%t privacy=%s\n", alt.Compliant(), bits(alt.Compliance.PrivacyScore))
	for _, v := range alt.Compliance.Violations {
		fmt.Fprintf(out, "violation %s %s: %s\n", v.Rule, v.Severity, v.Message)
	}
	for _, o := range alt.Compliance.Obligations {
		fmt.Fprintf(out, "obligation %s\n", o)
	}
	e := alt.Evaluation
	fmt.Fprintf(out, "evaluation score=%s feasible=%t hard_violations=%d\n", bits(e.Score), e.Feasible, e.HardViolations)
}

func TestCompileMatchesGolden(t *testing.T) {
	lab, err := labs.NewLab(labs.Config{Seed: 1, Sizing: workload.Sizing{Customers: 600, Meters: 4, Days: 4, Users: 80}})
	if err != nil {
		t.Fatal(err)
	}
	compiler := lab.Compiler()
	var out strings.Builder
	for _, campaign := range goldenCompileCampaigns() {
		fmt.Fprintf(&out, "== %s regime=%s\n", campaign.Name, campaign.Regime)
		alternatives := []core.Alternative(nil)
		result, err := compiler.Compile(campaign)
		if err != nil {
			fmt.Fprintf(&out, "compile error %v\n", err)
			if alternatives, _, err = compiler.EnumerateAlternatives(campaign); err != nil {
				fmt.Fprintf(&out, "enumerate error %v\n", err)
			}
		} else {
			fmt.Fprintf(&out, "chosen #%d source_rows=%d\n", result.Chosen.Index, result.SourceRows)
			alternatives = result.Alternatives
		}
		for _, alt := range alternatives {
			writeAlternative(&out, alt)
		}
	}
	got := out.String()
	path := filepath.FromSlash(goldenCompileFile)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("compile output differs from %s at line %d:\n got: %s\nwant: %s", goldenCompileFile, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("compile output has %d lines, %s has %d", len(gotLines), goldenCompileFile, len(wantLines))
}
