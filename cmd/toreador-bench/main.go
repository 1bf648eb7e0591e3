// Command toreador-bench regenerates the tables and figures of the paper's
// evaluation (see DESIGN.md §3) and prints them to stdout, in publication
// order. It asserts no time; performance is measured by benchmark/.
//
// Usage:
//
//	toreador-bench                   # all experiments, default sizing
//	toreador-bench -only table2      # a single experiment
//	toreador-bench -customers 5000   # larger synthetic datasets
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

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
		only      = fs.String("only", "", "run a single experiment: table1|table2|figure1|table3|figure3|figure4")
	)
	if err := fs.Parse(args); err != nil {
		return err
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

	// Experiments run in publication order.
	runs := []struct {
		name string
		fn   func() (renderable, error)
	}{
		{"table1", func() (renderable, error) { return experiments.RunTable1(env) }},
		{"table2", func() (renderable, error) { return experiments.RunTable2(ctx, env) }},
		{"figure1", func() (renderable, error) { return experiments.RunFigure1(env) }},
		{"table3", func() (renderable, error) { return experiments.RunTable3(env) }},
		{"figure3", func() (renderable, error) { return experiments.RunFigure3(env, nil) }},
		{"figure4", func() (renderable, error) { return experiments.RunFigure4(ctx, env, *attempts) }},
	}
	ran := 0
	for _, r := range runs {
		if !want(r.name) {
			continue
		}
		res, err := r.fn()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res.String())
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("unknown experiment %q", *only)
	}
	return nil
}
