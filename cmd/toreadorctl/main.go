// Command toreadorctl is the operator CLI of the platform: it compiles
// declarative campaign files into deployment plans, enumerates alternatives,
// runs the chosen pipeline, and produces interference and what-if reports.
//
// Usage:
//
//	toreadorctl -scenario telco -campaign campaign.json compile
//	toreadorctl -scenario telco -campaign campaign.json run
//	toreadorctl -scenario telco -campaign campaign.json explain
//	toreadorctl -scenario telco -campaign campaign.json alternatives
//	toreadorctl -scenario telco -campaign campaign.json interference
//	toreadorctl -scenario telco -campaign campaign.json plan -strategy greedy
//	toreadorctl -scenario telco serve -listen 127.0.0.1:8321
//	toreadorctl -store-dir ./tables tables
//	toreadorctl -store-dir ./tables -table results/churn -filter "customer_id >= 100" tables
//
// tables inspects the durable segment store: without -table it lists the
// live tables (rows, segments, bytes), with -table it scans one table —
// optionally under a zone-map-pruned predicate — and reports how many
// segments and frames the scan skipped.
//
// serve starts the long-running multi-tenant analytics service over HTTP:
// POST /submit?tenant=<name> accepts a campaign JSON body, compiles it and
// executes it under the service's admission control, SLA scheduling,
// deadlines and retry policy; GET /stats reports the service counters and
// latency histograms; POST /shutdown drains and exits.
//
// The -scenario flag registers one or more synthetic vertical scenarios
// (comma separated) so the campaign's data sources resolve; -repository
// optionally persists campaigns and run records; -store-dir opens the
// crash-safe segment store, making every run save its prepared dataset as the
// durable table results/<campaign>.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	toreador "repro"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "toreadorctl:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("toreadorctl", flag.ContinueOnError)
	var (
		scenarios  = fs.String("scenario", "telco", "comma-separated vertical scenarios to register (telco,retail,energy,web,finance)")
		campaign   = fs.String("campaign", "", "path to the declarative campaign JSON file (required)")
		seed       = fs.Int64("seed", 1, "seed for data generation and execution")
		customers  = fs.Int("customers", 2000, "scenario sizing: customers/baskets/transactions")
		repository = fs.String("repository", "", "optional model-repository directory for persistence")
		strategy   = fs.String("strategy", "exhaustive", "planning strategy for the plan command (exhaustive|greedy|random)")
		memBudget  = fs.Int64("memory-budget", 0, "bytes of columnar batch data the engine keeps resident per shuffle, sort or join; excess spills to disk, group-by state stays resident (0 = unlimited)")
		failRate   = fs.Float64("failure-rate", 0, "injected transient task-failure probability on the simulated cluster (serve: exercised by the retry policy)")
		listen     = fs.String("listen", "127.0.0.1:8321", "serve: listen address (host:0 picks a free port)")
		queueDepth = fs.Int("queue", 16, "serve: submission queue depth before admission control rejects or sheds")
		workers    = fs.Int("workers", 2, "serve: concurrent campaign executions")
		maxRetries = fs.Int("max-retries", 2, "serve: retry budget per campaign for transient failures")
		storeDir   = fs.String("store-dir", "", "directory of the durable segment store; runs save their prepared data there as results/<campaign>")
		spillDir   = fs.String("spill-dir", "", "directory for engine spill temp files (default: system temp dir)")
		tableName  = fs.String("table", "", "tables: scan this table instead of listing all tables")
		filterExpr = fs.String("filter", "", "tables: predicate pushed into the scan, e.g. \"customer_id >= 100\"")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("missing command: one of compile, run, explain, alternatives, interference, plan, serve, tables")
	}
	command := fs.Arg(0)
	if *campaign == "" && command != "serve" && command != "tables" {
		return fmt.Errorf("-campaign is required")
	}

	platform, err := toreador.New(toreador.Config{
		Seed: *seed, RepositoryDir: *repository, MemoryBudget: *memBudget, FailureRate: *failRate,
		StoreDir: *storeDir,
		SpillDir: *spillDir,
	})
	if err != nil {
		return err
	}
	sizing := toreador.Sizing{Customers: *customers}
	for _, name := range strings.Split(*scenarios, ",") {
		v, err := parseVertical(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		if _, err := platform.RegisterScenario(v, sizing); err != nil {
			return fmt.Errorf("register scenario %s: %w", v, err)
		}
	}

	ctx := context.Background()
	if command == "tables" {
		return doTables(out, platform, *tableName, *filterExpr)
	}
	if command == "serve" {
		return doServe(out, platform, serveOptions{
			listen:     *listen,
			queueDepth: *queueDepth,
			workers:    *workers,
			maxRetries: *maxRetries,
		})
	}

	f, err := os.Open(*campaign)
	if err != nil {
		return fmt.Errorf("open campaign: %w", err)
	}
	defer f.Close()
	c, err := model.DecodeCampaign(f)
	if err != nil {
		return err
	}

	switch command {
	case "compile":
		return doCompile(out, platform, c)
	case "run":
		return doRun(ctx, out, platform, c)
	case "explain":
		return doExplain(out, platform, c)
	case "alternatives":
		return doAlternatives(out, platform, c)
	case "interference":
		return doInterference(out, platform, c)
	case "plan":
		return doPlan(out, platform, c, toreador.Strategy(*strategy))
	default:
		return fmt.Errorf("unknown command %q", command)
	}
}

func doTables(out io.Writer, platform *toreador.Platform, table, filter string) error {
	st := platform.Store()
	if st == nil {
		return fmt.Errorf("tables requires -store-dir")
	}
	if table == "" {
		infos := st.Tables()
		fmt.Fprintf(out, "%d tables:\n", len(infos))
		for _, ti := range infos {
			fmt.Fprintf(out, "  %-32s %8d rows %4d segments %10d bytes  (%s)\n",
				ti.Name, ti.Rows, ti.Segments, ti.Bytes, strings.Join(ti.Columns, ","))
		}
		if q := st.Quarantined(); len(q) > 0 {
			fmt.Fprintf(out, "%d segments quarantined during recovery: %s\n", len(q), strings.Join(q, ", "))
		}
		return nil
	}
	schema, err := st.Schema(table)
	if err != nil {
		return err
	}
	var f store.Filter
	if filter != "" {
		pred, err := store.ParsePred(filter, schema)
		if err != nil {
			return err
		}
		f = store.Filter{pred}
	}
	rows := 0
	stats, err := st.Scan(table, f, func(b *storage.ColumnBatch) error {
		rows += b.Len()
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "table:    %s\n", table)
	if filter != "" {
		fmt.Fprintf(out, "filter:   %s\n", filter)
	}
	fmt.Fprintf(out, "scanned:  %d rows\n", rows)
	fmt.Fprintf(out, "segments: %d scanned, %d skipped by zone maps\n", stats.SegmentsScanned, stats.SegmentsSkipped)
	fmt.Fprintf(out, "frames:   %d scanned, %d skipped\n", stats.FramesScanned, stats.FramesSkipped)
	return nil
}

func parseVertical(name string) (toreador.Vertical, error) {
	switch name {
	case "telco":
		return toreador.VerticalTelco, nil
	case "retail":
		return toreador.VerticalRetail, nil
	case "energy":
		return toreador.VerticalEnergy, nil
	case "web":
		return toreador.VerticalWeb, nil
	case "finance":
		return toreador.VerticalFinance, nil
	default:
		return "", fmt.Errorf("unknown vertical %q", name)
	}
}

func doCompile(out io.Writer, platform *toreador.Platform, c *toreador.Campaign) error {
	result, err := platform.Compile(c)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "campaign:      %s (%s)\n", c.Name, c.Goal.Task)
	fmt.Fprintf(out, "design space:  %d alternatives, %d compliant\n",
		len(result.Alternatives), len(result.CompliantAlternatives()))
	fmt.Fprintf(out, "chosen:        %s\n", result.Chosen.Fingerprint())
	fmt.Fprintf(out, "estimates:     %s\n", result.Chosen.Estimates)
	fmt.Fprintf(out, "compile time:  %s (validate %s, match %s, compose %s, comply %s, bind %s)\n",
		result.Timings.Total(), result.Timings.Validate, result.Timings.Match,
		result.Timings.Compose, result.Timings.Comply, result.Timings.Bind)
	arts, err := result.Chosen.Plan.Artifacts()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "\ndeployment artifacts:")
	for name := range arts {
		fmt.Fprintf(out, "  %s (%d bytes)\n", name, len(arts[name]))
	}
	return nil
}

func doRun(ctx context.Context, out io.Writer, platform *toreador.Platform, c *toreador.Campaign) error {
	result, report, err := platform.Execute(ctx, c)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "executed:  %s\n", result.Chosen.Fingerprint())
	fmt.Fprintf(out, "measured:  %s\n", report.Measured)
	fmt.Fprintf(out, "wall time: %s over %d rows\n", report.WallTime, report.RowsProcessed)
	fmt.Fprintln(out, "\nobjective evaluation:")
	fmt.Fprint(out, report.Evaluation.Summary())
	fmt.Fprintln(out, "\ndiagnostics:")
	for k, v := range report.Details {
		fmt.Fprintf(out, "  %-28s %s\n", k, v)
	}
	return nil
}

func doExplain(out io.Writer, platform *toreador.Platform, c *toreador.Campaign) error {
	result, err := platform.Compile(c)
	if err != nil {
		return err
	}
	plan, err := platform.ExplainPipeline(c, result.Chosen)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "campaign: %s\n", c.Name)
	fmt.Fprintf(out, "chosen:   %s\n\n", result.Chosen.Fingerprint())
	fmt.Fprint(out, plan)
	return nil
}

func doAlternatives(out io.Writer, platform *toreador.Platform, c *toreador.Campaign) error {
	alternatives, err := platform.Alternatives(c)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%d alternatives for %s:\n", len(alternatives), c.Name)
	for _, a := range alternatives {
		marker := " "
		if !a.Compliant() {
			marker = "!"
		}
		fmt.Fprintf(out, "%s [%3d] score=%.3f %s\n", marker, a.Index, a.Evaluation.Score, a.Fingerprint())
	}
	fmt.Fprintln(out, "\n('!' marks non-compliant alternatives)")
	return nil
}

func doInterference(out io.Writer, platform *toreador.Platform, c *toreador.Campaign) error {
	points, err := platform.Interference(c)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "interference analysis for %s:\n", c.Name)
	fmt.Fprintf(out, "%-14s %12s %10s %12s %10s %10s %10s\n",
		"regime", "alternatives", "compliant", "preparation", "analytics", "display", "platforms")
	for _, p := range points {
		fmt.Fprintf(out, "%-14s %12d %10d %12d %10d %10d %10d\n",
			p.Regime, p.TotalAlternatives, p.CompliantAlternatives,
			p.PreparationOptions, p.AnalyticsOptions, p.DisplayOptions, p.PlatformOptions)
	}
	return nil
}

func doPlan(out io.Writer, platform *toreador.Platform, c *toreador.Campaign, strategy toreador.Strategy) error {
	decision, err := platform.Plan(c, strategy)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "strategy:  %s\n", decision.Strategy)
	fmt.Fprintf(out, "chosen:    %s\n", decision.Chosen.Fingerprint())
	fmt.Fprintf(out, "score:     %.3f (feasible=%v)\n", decision.Score, decision.Feasible)
	fmt.Fprintf(out, "explored:  %d of %d alternatives in %s\n", decision.Explored, decision.TotalAlternatives, decision.Elapsed)
	return nil
}
