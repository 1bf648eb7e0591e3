package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// smallArgs keeps generated data tiny so the CLI tests stay fast.
func smallArgs(extra ...string) []string {
	base := []string{"-customers", "250", "-meters", "2", "-days", "3", "-users", "40", "-attempts", "2"}
	return append(base, extra...)
}

func runBenchCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(args, &buf)
	return buf.String(), err
}

func TestBenchCLISingleExperiment(t *testing.T) {
	out, err := runBenchCLI(t, smallArgs("-only", "table1")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table 1") {
		t.Errorf("output missing Table 1:\n%s", out)
	}
	if strings.Contains(out, "Table 3") {
		t.Error("-only table1 must not run other experiments")
	}
}

func TestBenchCLIUnknownExperiment(t *testing.T) {
	// The performance experiments moved to benchmark/; their names are gone.
	for _, only := range []string{"table99", "figure2", "figure5", "figure7", "table4"} {
		if _, err := runBenchCLI(t, smallArgs("-only", only)...); err == nil {
			t.Errorf("-only %s: unknown experiment must fail", only)
		}
	}
}

// TestBenchCLIAllExperiments pins the suite to the paper's six experiments,
// printed in publication order.
func TestBenchCLIAllExperiments(t *testing.T) {
	out, err := runBenchCLI(t, smallArgs()...)
	if err != nil {
		t.Fatal(err)
	}
	var titles []string
	for _, m := range regexp.MustCompile(`(?m)^((?:Table|Figure) \d+) — `).FindAllStringSubmatch(out, -1) {
		titles = append(titles, m[1])
	}
	want := []string{"Table 1", "Table 2", "Figure 1", "Table 3", "Figure 3", "Figure 4"}
	if strings.Join(titles, ",") != strings.Join(want, ",") {
		t.Errorf("titles = %v, want %v", titles, want)
	}
}

func TestBenchCLICheapExperiments(t *testing.T) {
	// Run the cheap, non-execution experiments in one go to keep CI time low;
	// the full suite is exercised by TestBenchCLIAllExperiments and
	// internal/experiments.
	for _, only := range []string{"figure1", "figure3", "table3"} {
		out, err := runBenchCLI(t, smallArgs("-only", only)...)
		if err != nil {
			t.Fatalf("%s: %v", only, err)
		}
		if len(out) == 0 {
			t.Errorf("%s produced no output", only)
		}
	}
}

func TestBenchCLIFlagParsing(t *testing.T) {
	// -json and -compare belonged to the retired artifact gate.
	for _, args := range [][]string{{"-not-a-flag"}, {"-json"}, {"-compare", "x"}} {
		if _, err := runBenchCLI(t, args...); err == nil {
			t.Errorf("%v: bad flags must fail", args)
		}
	}
}
