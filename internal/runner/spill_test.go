package runner

// spill_test.go checks the whole-run spill figures of a budgeted campaign:
// Report.EngineStats carries the preparation collect's stats, with the spill
// counters summed over the preparation and the analytics collects.

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/workload"
)

func TestRunSpillFiguresSumPreparationAndAnalytics(t *testing.T) {
	data := storage.NewCatalog()
	gen := workload.NewGenerator(17)
	for _, v := range []workload.Vertical{workload.VerticalEnergy, workload.VerticalRetail} {
		sc, err := gen.Generate(v, workload.Sizing{Customers: 400, Meters: 8, Days: 3, Users: 60})
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Register(data); err != nil {
			t.Fatal(err)
		}
	}
	compiler, err := core.NewCompiler(data)
	if err != nil {
		t.Fatal(err)
	}
	// A one-byte budget spills every batch a wide operator accumulates, so
	// the figures do not depend on task scheduling.
	r, err := New(data, WithMemoryBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	campaigns := []*model.Campaign{
		{
			Name:     "revenue-report",
			Vertical: "retail",
			Goal: model.Goal{
				Task:         model.TaskReporting,
				TargetTable:  "retail_baskets",
				ValueColumn:  "unit_price",
				GroupColumns: []string{"category"},
			},
			Sources: []model.DataSource{{Table: "retail_baskets"}},
			Regime:  model.RegimeNone,
		},
		{
			Name:     "load-forecast",
			Vertical: "energy",
			Goal: model.Goal{
				Task:        model.TaskForecasting,
				TargetTable: "meter_readings",
				ValueColumn: "kwh",
				TimeColumn:  "read_at",
			},
			Sources: []model.DataSource{{Table: "meter_readings", ContainsPersonalData: true, Region: "eu"}},
			Regime:  model.RegimePseudonymize,
		},
	}
	ctx := context.Background()
	for _, c := range campaigns {
		result, err := compiler.Compile(c)
		if err != nil {
			t.Fatalf("%s: compile: %v", c.Name, err)
		}
		alt := result.Chosen
		report, err := r.Run(ctx, c, alt)
		if err != nil {
			t.Fatalf("%s: run: %v", c.Name, err)
		}

		// The run's two collects, issued the way Run issues them.
		_, engine, err := r.newEngine(alt)
		if err != nil {
			t.Fatal(err)
		}
		table, err := r.lookupTable(c.Goal.TargetTable)
		if err != nil {
			t.Fatal(err)
		}
		dataset, _, err := r.applyPreparation(c, alt.Composition, table)
		if err != nil {
			t.Fatal(err)
		}
		prepared, err := engine.CollectBatches(ctx, dataset)
		if err != nil {
			t.Fatal(err)
		}
		plan, ok := analyticsPlan(c, dataflow.FromBatches(c.Goal.TargetTable, prepared.Schema, prepared.Batches))
		if !ok {
			t.Fatalf("%s: no analytics plan", c.Name)
		}
		analyzed, err := engine.CollectBatches(ctx, plan)
		if err != nil {
			t.Fatal(err)
		}

		got, prep, an := report.EngineStats, prepared.Stats, analyzed.Stats
		// The forecast's sort spills its runs; the report's combined
		// group-by keeps its partials resident, outside the budget.
		if spills := c.Goal.Task == model.TaskForecasting; spills != (an.SpilledBatches > 0) {
			t.Fatalf("%s: analytics collect spilled %d batches", c.Name, an.SpilledBatches)
		}
		if got.SpilledBatches != prep.SpilledBatches+an.SpilledBatches ||
			got.SpilledBytes != prep.SpilledBytes+an.SpilledBytes ||
			got.SpillLogicalBytes != prep.SpillLogicalBytes+an.SpillLogicalBytes {
			t.Errorf("%s: report spill batches/bytes/logical = %d/%d/%d, want %d+%d/%d+%d/%d+%d", c.Name,
				got.SpilledBatches, got.SpilledBytes, got.SpillLogicalBytes,
				prep.SpilledBatches, an.SpilledBatches, prep.SpilledBytes, an.SpilledBytes,
				prep.SpillLogicalBytes, an.SpillLogicalBytes)
		}
		// Every other field is the preparation collect's.
		got.SpilledBatches, got.SpilledBytes, got.SpillLogicalBytes = prep.SpilledBatches, prep.SpilledBytes, prep.SpillLogicalBytes
		got.WallTime, prep.WallTime = 0, 0
		if got != prep {
			t.Errorf("%s: report stats %+v, want the preparation collect's %+v", c.Name, got, prep)
		}
	}
}
