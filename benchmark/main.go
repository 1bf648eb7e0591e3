// Command benchmark is the instrument every performance claim on this
// repository is measured with. It drives the system through its public
// functions only, in one process, on four campaign-shaped workloads, and
// reports the end-to-end metrics (untraced run) and the per-layer metrics
// (traced run) that BENCHMARK.json names. See README.md in this directory.
//
//	go run ./benchmark -workload engine-spill -seed 1 -seconds 20 -trace 0 [-out a/engine-spill.json]
//	go run ./benchmark -all [-out results/]
//	go run ./benchmark compare <setA> <setB>
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// scratchDir is where a run keeps everything it writes (spill files, the
// durable store, the span file): inside the checkout it is started from, and
// ignored by git.
const scratchDir = ".bench_build"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], out)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run: engine-resident, engine-spill, campaign-round or serve-closed")
		seed     = fs.Int64("seed", 1, "seed every generated input derives from")
		seconds  = fs.Float64("seconds", 20, "length of the timed window")
		trace    = fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		outPath  = fs.String("out", "", "write the result as JSON to this file (with -all: into this directory)")
		all      = fs.Bool("all", false, "run every workload in turn, untraced then traced, each in a fresh process")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	if *all {
		return runAll(out, *seed, *seconds, *outPath)
	}
	if *workload == "" {
		return errors.New("-workload is required (or -all, or the compare subcommand)")
	}

	res, runErr := runWorkload(context.Background(), runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace != 0, dir: scratchDir,
	})
	if runErr != nil {
		return runErr
	}
	if res.spans != nil {
		spanPath := filepath.Join(scratchDir, "spans-"+res.Workload+".jsonl")
		if *outPath != "" {
			spanPath = strings.TrimSuffix(*outPath, ".json") + ".spans.jsonl"
		}
		if err := res.spans.write(spanPath); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(out, "# spans written to %s\n", spanPath)
	}
	if err := printResult(out, res); err != nil {
		return err
	}
	if *outPath != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops or output checks failed: %s",
			res.Workload, res.Failed, res.Attempted, strings.Join(res.Errors, "; "))
	}
	return nil
}

// printResult prints every metric as "name value unit", then — as the last
// line — the one JSON object the benchmark contract asks for.
func printResult(out io.Writer, res *result) error {
	mode := "untraced"
	defs := endToEnd
	if res.Traced {
		mode, defs = "traced", perLayer
	}
	fmt.Fprintf(out, "# %s (%s): %d ops timed, %d attempted, %d failed, seed %d, corpus %s\n",
		res.Workload, mode, res.Meta.Samples, res.Attempted, res.Failed, res.Meta.Seed, res.Meta.CorpusHash)
	for _, d := range defs {
		if m, ok := res.Metrics[d.Name]; ok {
			fmt.Fprintf(out, "%s %s %s\n", d.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// runAll runs every workload untraced and then traced. Each run is a fresh
// process of this same binary, so peak RSS, GC state and set-up time mean what
// they mean in a single run.
func runAll(out io.Writer, seed int64, seconds float64, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	var failed []string
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
			if outDir != "" {
				name := w.name + ".json"
				if trace == 1 {
					name = w.name + ".traced.json"
				}
				args = append(args, "-out", filepath.Join(outDir, name))
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = out, os.Stderr
			if err := cmd.Run(); err != nil {
				failed = append(failed, fmt.Sprintf("%s (trace %d): %v", w.name, trace, err))
			}
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d runs failed: %s", len(failed), strings.Join(failed, "; "))
	}
	return nil
}
