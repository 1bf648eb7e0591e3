// Command toreador-bench regenerates every table and figure of the
// reproduction's experiment suite (see DESIGN.md §3 and EXPERIMENTS.md) and
// prints them to stdout. The root bench_test.go exercises the same
// experiments as testing.B benchmarks; this command is the human-readable
// front end.
//
// Usage:
//
//	toreador-bench                   # all experiments, default sizing
//	toreador-bench -only table2      # a single experiment
//	toreador-bench -customers 5000   # larger synthetic datasets
//	toreador-bench -json             # machine-readable output (CI artifacts)
//	toreador-bench -json -commit abc # stamp the artifact with a commit id
//	toreador-bench -compare DIR      # delta table of the two newest artifacts
//	toreador-bench -compare DIR -threshold 15
//	                                 # same, failing on >15% wall-time regressions
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "toreador-bench:", err)
		os.Exit(1)
	}
}

// renderable is the common surface of the experiment result types.
type renderable interface{ String() string }

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("toreador-bench", flag.ContinueOnError)
	var (
		seed      = fs.Int64("seed", 1, "seed for data generation and execution")
		customers = fs.Int("customers", 1500, "scenario sizing: customers/baskets/transactions")
		meters    = fs.Int("meters", 6, "scenario sizing: smart meters")
		days      = fs.Int("days", 7, "scenario sizing: days of readings")
		users     = fs.Int("users", 150, "scenario sizing: clickstream users")
		attempts  = fs.Int("attempts", 5, "attempts per simulated trainee (figure 4)")
		only      = fs.String("only", "", "run a single experiment: table1|table2|table3|table4|figure1|figure2|figure3|figure4|figure5|figure7")
		asJSON    = fs.Bool("json", false, "emit results as a single JSON object keyed by experiment name")
		commit    = fs.String("commit", "", "commit id recorded in the JSON artifact's _meta block")
		compare   = fs.String("compare", "", "directory of BENCH_*.json artifacts: diff the two newest and print a per-benchmark delta table")
		threshold = fs.Float64("threshold", 0, "with -compare: exit non-zero when any wall-time metric regresses by more than this percent vs the previous artifact (0 disables the gate)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare != "" {
		return compareArtifacts(out, *compare, *threshold)
	}
	env, err := experiments.NewEnv(*seed, workload.Sizing{
		Customers: *customers, Meters: *meters, Days: *days, Users: *users,
	})
	if err != nil {
		return err
	}
	ctx := context.Background()
	want := func(name string) bool {
		return *only == "" || strings.EqualFold(*only, name)
	}

	// Experiments run in publication order; results are rendered as text or
	// collected into one JSON document for the CI bench artifact.
	runs := []struct {
		name string
		fn   func() (renderable, error)
	}{
		{"table1", func() (renderable, error) { return experiments.RunTable1(env) }},
		{"table2", func() (renderable, error) { return experiments.RunTable2(ctx, env) }},
		{"figure1", func() (renderable, error) { return experiments.RunFigure1(env) }},
		{"figure2", func() (renderable, error) { return experiments.RunFigure2(ctx, env, nil, nil) }},
		{"table3", func() (renderable, error) { return experiments.RunTable3(env) }},
		{"figure3", func() (renderable, error) { return experiments.RunFigure3(env, nil) }},
		{"table4", func() (renderable, error) { return experiments.RunTable4(ctx, env) }},
		{"figure4", func() (renderable, error) { return experiments.RunFigure4(ctx, env, *attempts) }},
		{"figure5", func() (renderable, error) { return experiments.RunFigure5(ctx, env, nil, 0) }},
		{"figure7", func() (renderable, error) { return experiments.RunFigure7(ctx, env, nil) }},
	}
	results := map[string]renderable{}
	ran := 0
	for _, r := range runs {
		if !want(r.name) {
			continue
		}
		res, err := r.fn()
		if err != nil {
			return err
		}
		if *asJSON {
			results[r.name] = res
		} else {
			fmt.Fprintln(out, res.String())
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("unknown experiment %q", *only)
	}
	if *asJSON {
		doc := map[string]any{
			"_meta": artifactMeta{Commit: *commit, GeneratedUnix: time.Now().Unix()},
		}
		for name, res := range results {
			doc[name] = res
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	return nil
}

// artifactMeta orders bench artifacts in a directory without relying on file
// modification times, which git checkouts do not preserve.
type artifactMeta struct {
	Commit        string `json:"commit,omitempty"`
	GeneratedUnix int64  `json:"generated_unix"`
}

// compareArtifacts loads every BENCH_*.json in dir, picks the two newest by
// their _meta timestamps, and prints a per-benchmark delta table of the
// headline numeric metrics — the perf trajectory between the two commits.
// With threshold > 0 it is also the regression gate: any duration metric (the
// experiment analogue of ns/op) that grew by more than threshold percent
// fails the run with a non-zero exit, which is what CI wires into the job
// summary.
func compareArtifacts(out io.Writer, dir string, threshold float64) error {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return err
	}
	if len(paths) < 2 {
		// A fresh clone (or a repo whose history predates artifact commits)
		// has nothing to diff against. That is not a failure — the gate only
		// means anything once a baseline exists — so report and exit clean.
		fmt.Fprintf(out, "bench-compare: found %d BENCH_*.json artifact(s) in %s; need two to compare — skipping\n", len(paths), dir)
		return nil
	}
	type artifact struct {
		path string
		meta artifactMeta
		doc  map[string]any
	}
	arts := make([]artifact, 0, len(paths))
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var doc map[string]any
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		a := artifact{path: p, doc: doc}
		if m, ok := doc["_meta"].(map[string]any); ok {
			if c, ok := m["commit"].(string); ok {
				a.meta.Commit = c
			}
			if ts, ok := m["generated_unix"].(float64); ok {
				a.meta.GeneratedUnix = int64(ts)
			}
		}
		arts = append(arts, a)
	}
	sort.Slice(arts, func(i, j int) bool {
		if arts[i].meta.GeneratedUnix != arts[j].meta.GeneratedUnix {
			return arts[i].meta.GeneratedUnix < arts[j].meta.GeneratedUnix
		}
		return arts[i].path < arts[j].path
	})
	oldA, newA := arts[len(arts)-2], arts[len(arts)-1]

	oldVals := flattenNumeric("", oldA.doc)
	newVals := flattenNumeric("", newA.doc)
	keys := make([]string, 0, len(newVals))
	for k := range newVals {
		if _, ok := oldVals[k]; ok && interestingMetric(k) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	name := func(a artifact) string {
		if a.meta.Commit != "" {
			return a.meta.Commit
		}
		return filepath.Base(a.path)
	}
	fmt.Fprintf(out, "bench delta: %s -> %s\n", name(oldA), name(newA))
	fmt.Fprintf(out, "%-58s %14s %14s %9s\n", "benchmark", "old", "new", "delta")
	var regressions []string
	for _, k := range keys {
		o, n := oldVals[k], newVals[k]
		delta := "n/a"
		if o != 0 {
			pct := (n - o) / o * 100
			delta = fmt.Sprintf("%+.1f%%", pct)
			if threshold > 0 && durationMetric(k) && o >= gateFloorNanos && pct > threshold {
				regressions = append(regressions, fmt.Sprintf("%s %s", k, delta))
			}
		}
		fmt.Fprintf(out, "%-58s %14.4g %14.4g %9s\n", k, o, n, delta)
	}
	if len(keys) == 0 {
		fmt.Fprintln(out, "(no comparable metrics found)")
	}
	if threshold > 0 {
		if len(regressions) > 0 {
			fmt.Fprintf(out, "\nregression gate (+%.0f%%): FAILED\n", threshold)
			for _, r := range regressions {
				fmt.Fprintf(out, "  %s\n", r)
			}
			return fmt.Errorf("%d wall-time metric(s) regressed more than %.0f%% vs %s",
				len(regressions), threshold, name(oldA))
		}
		fmt.Fprintf(out, "\nregression gate (+%.0f%%): ok\n", threshold)
	}
	return nil
}

// gateFloorNanos keeps the regression gate off noise-dominated timings:
// duration metrics whose baseline is under 10ms swing far more than any
// plausible threshold between runs (and between CI machines), so only the
// substantial pipeline measurements gate.
const gateFloorNanos = 10_000_000

// durationMetric reports whether the flattened path is a nanosecond duration
// — the experiment-suite analogue of ns/op, where an increase is a
// regression. Throughput-style metrics (rows/s, speedups, scores) regress
// downward and are reported in the table but never gate.
func durationMetric(path string) bool {
	for _, suffix := range []string{"WallTime", "TotalCompile", "Execution"} {
		if strings.HasSuffix(path, suffix) {
			return true
		}
	}
	return false
}

// flattenNumeric walks decoded JSON and collects numeric leaves keyed by
// their dotted path; array elements keep their index, which is stable because
// the experiment sweeps are fixed.
func flattenNumeric(prefix string, v any) map[string]float64 {
	out := map[string]float64{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, val := range x {
				p := k
				if path != "" {
					p = path + "." + k
				}
				walk(p, val)
			}
		case []any:
			for i, val := range x {
				walk(fmt.Sprintf("%s[%d]", path, i), val)
			}
		case float64:
			out[path] = x
		}
	}
	walk(prefix, v)
	return out
}

// interestingMetric filters the flattened paths down to the headline
// per-benchmark numbers, keeping the delta table readable.
func interestingMetric(path string) bool {
	if strings.HasPrefix(path, "_meta") {
		return false
	}
	for _, suffix := range []string{
		"ThroughputRPS", "SpeedupVs1", "ShuffledRows", "BroadcastJoins", "Batches",
		"WallTime", "TotalCompile", "Execution", "CrossoverRows", "EffectiveScore",
		"Accuracy", "CompliantAlternatives", "SortRuns",
		// Allocation, aggregation-state and spill-volume metrics ride along
		// in the delta table for trajectory visibility; only the wall-time
		// metrics above (see durationMetric) ever gate. The physical/logical
		// spill-byte pair makes compression-ratio changes visible across
		// commits without gating on them.
		"Allocs", "AllocBytes", "AggGroups", "AggSpilledPartitions", "AggPeakResidentBytes",
		"SpilledBatches", "SpilledBytes", "SpillLogicalBytes",
		// Durable-table metrics (Figure 7): materialisation cost and zone-map
		// pruning ride along ungated — the walls are sub-gate-floor anyway.
		"RecomputeWall", "SaveWall", "ScanWall", "SelectiveWall", "SegmentsSkipped",
	} {
		if strings.HasSuffix(path, suffix) {
			return true
		}
	}
	return false
}
