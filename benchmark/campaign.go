package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	toreador "repro"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/workload"
)

// campaignSizing is the Labs generator sizing campaign-round runs at.
func campaignSizing(e env) toreador.Sizing {
	return toreador.Sizing{
		Customers: e.pick(10_000, 2_000), Meters: e.pick(200, 3), Days: e.pick(14, 3), Users: e.pick(3_000, 40),
	}
}

func sizingMap(s toreador.Sizing) map[string]int {
	return map[string]int{"customers": s.Customers, "meters": s.Meters, "days": s.Days, "users": s.Users}
}

var verticals = []toreador.Vertical{
	toreador.VerticalTelco, toreador.VerticalFinance, toreador.VerticalEnergy, toreador.VerticalRetail, toreador.VerticalWeb,
}

// fixedSeed seeds what the campaign workloads do not draw from -seed: the
// telco vertical's data and the platform itself (train/test splits, k-means
// initialisation). The cost of the telco campaigns is chaotic in their data:
// over ten seeds the k-means of `segments` converged in 264 to 691 ms and a
// round spread 16% (4% at one seed), and telco-churn's 0.78 accuracy bar is
// missed by a fraction of a percent on about one seed in six. Data like that
// makes every run a different workload and buries a 10% change. The other four
// verticals cost nearly the same on every seed and are drawn from -seed, as
// are all inputs of the engine workloads.
const fixedSeed = 1

// registerScenarios generates the five verticals with the system's own Labs
// generator — telco at fixedSeed, the rest at seed — registers their tables
// and returns them by name.
func registerScenarios(p *toreador.Platform, sizing toreador.Sizing, seed int64, hasher *corpusHasher) (map[string]*storage.Table, error) {
	tables := map[string]*storage.Table{}
	for _, v := range verticals {
		genSeed := seed
		if v == toreador.VerticalTelco {
			genSeed = fixedSeed
		}
		sc, err := workload.NewGenerator(genSeed).Generate(v, sizing)
		if err != nil {
			return nil, err
		}
		for _, t := range sc.Tables {
			if err := p.RegisterTable(t); err != nil {
				return nil, err
			}
			hasher.table(t)
			tables[t.Name()] = t
		}
	}
	return tables, nil
}

// roundCampaigns returns the eight campaigns of a round, in campaignNames
// order: the five builtin challenges as shipped, a clustering campaign, and
// two campaigns that read an earlier campaign's saved result back from the
// store.
func roundCampaigns() []*toreador.Campaign {
	var out []*toreador.Campaign
	for _, ch := range toreador.BuiltinChallenges() {
		out = append(out, ch.Campaign)
	}
	telco := []toreador.DataSource{{Table: "telco_customers", ContainsPersonalData: true, Region: "eu"}}
	out = append(out, &toreador.Campaign{
		Name: "segments", Vertical: "telco",
		Goal: toreador.Goal{
			Task: toreador.TaskClustering, TargetTable: "telco_customers",
			FeatureColumns: []string{"monthly_charge", "data_usage_gb", "tenure_months"},
		},
		Sources: telco, Regime: toreador.RegimePseudonymize,
	})
	baskets := runner.ResultTableName("retail-baskets")
	out = append(out, &toreador.Campaign{
		Name: "revenue-from-store", Vertical: "retail",
		Goal: toreador.Goal{
			Task: toreador.TaskReporting, TargetTable: baskets,
			ValueColumn: "unit_price", GroupColumns: []string{"category"},
		},
		Sources: []toreador.DataSource{{Table: baskets, Region: "eu"}}, Regime: toreador.RegimeNone,
	})
	churn := out[0].Clone()
	churn.Name = "churn-from-store"
	churn.Goal.TargetTable = runner.ResultTableName("telco-churn")
	churn.Sources = []toreador.DataSource{{Table: churn.Goal.TargetTable, ContainsPersonalData: true, Region: "eu"}}
	return append(out, churn)
}

// derivedFrom maps a derived campaign to the campaign whose saved result it
// reads.
var derivedFrom = map[string]string{"revenue-from-store": "retail-baskets", "churn-from-store": "telco-churn"}

// execution keeps, of one campaign execution, the numbers the layer metrics
// are made of — not the compile result and report themselves, which would
// make the log the largest thing in the process.
type execution struct {
	phases       core.PhaseTimings
	alternatives int
	prep, wall   time.Duration // Report.EngineStats.WallTime, Report.WallTime
	busy         float64       // slot-seconds the run's cluster was busy
	offered      float64       // slots × wall
	counts       map[string]int64
}

func newExecution(c *toreador.CompileResult, r *toreador.Report) execution {
	return execution{
		phases: c.Timings, alternatives: len(c.Alternatives),
		prep: r.EngineStats.WallTime, wall: r.WallTime,
		busy:    busySlotSeconds(r.ClusterUsage),
		offered: float64(c.Chosen.Plan.Nodes*c.Chosen.Plan.SlotsPerNode) * r.WallTime.Seconds(),
		counts:  statCounts(r.EngineStats),
	}
}

// campaignLog accumulates, in a traced run, what the public API returned
// during the window; the layer metrics are read from it afterwards.
type campaignLog struct {
	mu   sync.Mutex
	runs map[string][]execution // by campaign name
}

func (l *campaignLog) add(name string, c *toreador.CompileResult, r *toreador.Report) {
	x := newExecution(c, r)
	l.mu.Lock()
	if l.runs == nil {
		l.runs = map[string][]execution{}
	}
	l.runs[name] = append(l.runs[name], x)
	l.mu.Unlock()
}

// layerMetrics derives the core.*, runner.* and dataflow.* count metrics and
// cluster.busy_share from the logged executions.
func (l *campaignLog) layerMetrics(lc *layerCtx) {
	var totals, validate, match, compose, comply, bind []time.Duration
	var compileSum time.Duration
	alternatives := 0
	var busy, offered float64
	counts := map[string]int64{}
	for name, runs := range l.runs {
		var own, prep, wall []time.Duration
		for _, x := range runs {
			t := x.phases
			own = append(own, t.Total())
			validate, match, compose = append(validate, t.Validate), append(match, t.Match), append(compose, t.Compose)
			comply, bind = append(comply, t.Comply), append(bind, t.Bind)
			compileSum += t.Total()
			alternatives += x.alternatives
			prep, wall = append(prep, x.prep), append(wall, x.wall)
			busy += x.busy
			offered += x.offered
		}
		totals = append(totals, own...)
		if name == "telco-churn" {
			lc.out["core.compile_ms.telco-churn"] = ms(median(own))
		}
		lc.out["runner.prep_ms."+name] = ms(median(prep))
		// Where the driver calls the runner itself (campaign-round) run_ms is
		// its span around Platform.Execute, store save included; behind the
		// service it can only be the wall time the report states.
		if spans := lc.tr.durations("runner.run_ms." + name); len(spans) > 0 {
			wall = spans
		}
		lc.out["runner.run_ms."+name] = ms(median(wall))
		// Engine counts of the campaign's most recent run; they repeat from
		// run to run, so the sum over campaigns is one round's worth.
		for k, v := range runs[len(runs)-1].counts {
			counts[k] += v
		}
	}
	for k, v := range counts {
		lc.out[k] = float64(v)
	}
	lc.out["core.compile_ms"] = ms(median(totals))
	lc.out["core.phase_us.validate"] = us(median(validate))
	lc.out["core.phase_us.match"] = us(median(match))
	lc.out["core.phase_us.compose"] = us(median(compose))
	lc.out["core.phase_us.comply"] = us(median(comply))
	lc.out["core.phase_us.bind"] = us(median(bind))
	lc.out["core.alternatives_per_compile"] = float64(alternatives) / float64(len(totals))
	var opTime time.Duration
	for _, d := range lc.ops {
		opTime += d
	}
	lc.out["core.compile_share"] = float64(compileSum) / float64(opTime)
	lc.out["cluster.busy_share"] = busy / offered
}

// requiredColumns lists the goal columns a campaign cannot work without; the
// runner's clean_missing step drops rows where any is null.
func requiredColumns(c *toreador.Campaign) []string {
	g := c.Goal
	cols := append([]string(nil), g.FeatureColumns...)
	cols = append(cols, g.LabelColumn, g.ValueColumn, g.TimeColumn, g.ItemColumn, g.TransactionColumn)
	return append(cols, g.GroupColumns...)
}

// rowsAfterNullDrop counts the rows of t whose required columns are all set.
func rowsAfterNullDrop(t *storage.Table, c *toreador.Campaign) int {
	var idx []int
	for _, col := range requiredColumns(c) {
		if i := t.Schema().IndexOf(col); col != "" && i >= 0 {
			idx = append(idx, i)
		}
	}
	n := 0
	t.Scan(func(r storage.Row) bool {
		for _, i := range idx {
			if r[i] == nil {
				return true
			}
		}
		n++
		return true
	})
	return n
}

type campaignRound struct {
	env
	platform  *toreador.Platform
	campaigns []*toreador.Campaign
	tables    map[string]*storage.Table
	log       campaignLog
	last      map[string]*toreador.Report // the most recent round
	// accuracy is what each campaign measured in the first verified round;
	// every later round must reproduce it exactly.
	accuracy map[string]float64
}

// checkObjectives verifies a report against its campaign's hard objectives.
// Whether an accuracy bar is met is a property of the seed's data, not of the
// system (energy-forecast's 0.5 is missed on about one seed in thirty), so
// accuracy is held to reproducibility instead: every round must measure what
// the first verified round measured, bit for bit. Every other hard objective
// must be met, the alternative run must be compliant, and the report's own
// feasibility verdict must agree with an evaluation of its measured values
// done here.
func checkObjectives(c *toreador.Campaign, r *toreador.Report, first map[string]float64) error {
	if !r.Compliant {
		return fmt.Errorf("campaign %s ran a non-compliant alternative", c.Name)
	}
	feasible := true
	for _, o := range c.HardObjectives() {
		measured, ok := r.Measured.Get(o.Indicator)
		met := ok && o.Comparison.Satisfied(measured, o.Target)
		feasible = feasible && met
		if !met && o.Indicator != toreador.IndicatorAccuracy {
			return fmt.Errorf("campaign %s misses hard objective %s %s %v: measured %v", c.Name, o.Indicator, o.Comparison, o.Target, measured)
		}
	}
	if r.Evaluation.Feasible != feasible {
		return fmt.Errorf("campaign %s: report says feasible=%v, its measured values say %v", c.Name, r.Evaluation.Feasible, feasible)
	}
	accuracy, _ := r.Measured.Get(toreador.IndicatorAccuracy)
	if was, seen := first[c.Name]; !seen {
		first[c.Name] = accuracy
	} else if accuracy != was {
		return fmt.Errorf("campaign %s measured accuracy %v, the first round measured %v", c.Name, accuracy, was)
	}
	return nil
}

func setUpCampaignRound(ctx context.Context, e env) (*instance, error) {
	// StoreDir set and the store's fsyncs left on: the platform as shipped.
	p, err := toreador.New(toreador.Config{Seed: fixedSeed, StoreDir: filepath.Join(e.dir, "store")})
	if err != nil {
		return nil, err
	}
	sizing := campaignSizing(e)
	hasher := newCorpusHasher()
	tables, err := registerScenarios(p, sizing, e.seed, hasher)
	if err != nil {
		return nil, err
	}
	w := &campaignRound{env: e, platform: p, campaigns: roundCampaigns(), tables: tables, accuracy: map[string]float64{}}
	if _, err := w.op(ctx, 0, 0, nil); err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	if err := w.verifyLast(); err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	w.log = campaignLog{} // the warm-up round is not part of the window
	return &instance{
		clients:    1, // a batch driver running round after round
		op:         w.op,
		verifyLast: w.verifyLast,
		layers:     w.layers,
		close:      p.Store().Close,
		corpusHash: hasher.sum(),
		sizing:     sizingMap(sizing),
	}, nil
}

// runRound executes every campaign once on p.
func runRound(ctx context.Context, p *toreador.Platform, campaigns []*toreador.Campaign, tr *opTrace,
	each func(c *toreador.CompileResult, r *toreador.Report)) (opCount, error) {
	var n opCount
	for _, c := range campaigns {
		end := tr.call("runner.run_ms." + c.Name)
		compiled, report, err := p.Execute(ctx, c)
		end()
		if err != nil {
			return n, fmt.Errorf("campaign %s: %w", c.Name, err)
		}
		n.rows += int64(report.RowsProcessed)
		n.campaigns++
		each(compiled, report)
	}
	return n, nil
}

func (w *campaignRound) op(ctx context.Context, _, _ int, tr *opTrace) (opCount, error) {
	round := map[string]*toreador.Report{}
	n, err := runRound(ctx, w.platform, w.campaigns, tr, func(c *toreador.CompileResult, r *toreador.Report) {
		round[r.Campaign] = r
		if w.traced {
			w.log.add(r.Campaign, c, r)
		}
	})
	if err == nil {
		w.last = round
	}
	return n, err
}

// verifyLast checks the report invariants of the most recent round.
func (w *campaignRound) verifyLast() error {
	st := w.platform.Store()
	for _, c := range w.campaigns {
		report, ok := w.last[c.Name]
		if !ok {
			return fmt.Errorf("campaign %s did not run", c.Name)
		}
		want := 0
		if up, derived := derivedFrom[c.Name]; derived {
			// A derived campaign must read back exactly what its upstream saved.
			want = w.last[up].RowsProcessed
		} else {
			want = rowsAfterNullDrop(w.tables[c.Goal.TargetTable], c)
		}
		if report.RowsProcessed != want {
			return fmt.Errorf("campaign %s processed %d rows, want %d", c.Name, report.RowsProcessed, want)
		}
		if err := checkObjectives(c, report, w.accuracy); err != nil {
			return err
		}
		info, err := st.Info(runner.ResultTableName(c.Name))
		if err != nil {
			return fmt.Errorf("campaign %s saved no result: %w", c.Name, err)
		}
		if info.Rows != report.RowsProcessed {
			return fmt.Errorf("campaign %s saved %d rows, processed %d", c.Name, info.Rows, report.RowsProcessed)
		}
	}
	return nil
}

func (w *campaignRound) layers(ctx context.Context, lc *layerCtx) error {
	w.log.layerMetrics(lc)
	st := w.platform.Store()
	var bytes, rows int64
	largest := store.TableInfo{}
	for _, t := range st.Tables() {
		bytes += t.Bytes
		rows += int64(t.Rows)
		if t.Rows > largest.Rows {
			largest = t
		}
	}
	lc.out["store.stored_bytes_per_row"] = float64(bytes) / float64(max(rows, 1))

	// The same round on a platform without a store: the derived campaigns
	// find the saved results registered as in-memory tables instead. The
	// difference to the measured round is what the store costs a round,
	// saves and read-backs together.
	bare, err := toreador.New(toreador.Config{Seed: fixedSeed})
	if err != nil {
		return err
	}
	if _, err := registerScenarios(bare, campaignSizing(w.env), w.seed, newCorpusHasher()); err != nil {
		return err
	}
	for _, up := range derivedFrom {
		t, err := st.ReadTable(runner.ResultTableName(up))
		if err != nil {
			return err
		}
		if err := bare.RegisterTable(t); err != nil {
			return err
		}
	}
	d, err := lc.timeProbe("runner.store_save_ms", 3, func() error {
		_, err := runRound(ctx, bare, w.campaigns, nil, func(*toreador.CompileResult, *toreador.Report) {})
		return err
	})
	if err != nil {
		return err
	}
	lc.out["runner.store_save_ms"] = ms(lc.opP50 - d)

	return probeStore(lc, st, largest.Name)
}

// ---------------------------------------------------------------------------
// store probes
// ---------------------------------------------------------------------------

// countingFS is the OS filesystem with the writes and syncs counted: what a
// save costs the device, next to what it costs in time.
type countingFS struct {
	store.OSFS
	mu     sync.Mutex
	syncs  int64
	writes int64 // bytes
}

type countingFile struct {
	store.File
	fs *countingFS
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.mu.Lock()
	f.fs.writes += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f countingFile) Sync() error {
	f.fs.mu.Lock()
	f.fs.syncs++
	f.fs.mu.Unlock()
	return f.File.Sync()
}

func (c *countingFS) Create(name string) (store.File, error) {
	f, err := c.OSFS.Create(name)
	return countingFile{f, c}, err
}

func (c *countingFS) Append(name string) (store.File, error) {
	f, err := c.OSFS.Append(name)
	return countingFile{f, c}, err
}

func (c *countingFS) SyncDir(dir string) error {
	c.mu.Lock()
	c.syncs++
	c.mu.Unlock()
	return c.OSFS.SyncDir(dir)
}

// probeStore times the durable store's write, read, selective read and
// recovery on the rows of the named saved table, through a store of its own
// opened on a counting filesystem. Write cost, read cost and space are all
// reported, because a change usually buys one with another.
func probeStore(lc *layerCtx, from *store.Store, table string) error {
	schema, err := from.Schema(table)
	if err != nil {
		return err
	}
	rows, err := from.Rows(table)
	if err != nil {
		return err
	}
	fs := &countingFS{}
	dir := filepath.Join(lc.dir, "probe-store")
	st, err := store.Open(dir, store.WithFS(fs))
	if err != nil {
		return err
	}
	defer func() { _ = st.Close() }() // read-only by then; the reopen loop below checks the closes that matter

	const reps = 3
	var syncs, writes int64 // of the most recent save: the first also creates the manifest
	d, err := lc.timeProbe("store.save_ms", reps, func() error {
		syncs, writes = fs.syncs, fs.writes
		err := st.SaveRows("probe", schema, rows)
		syncs, writes = fs.syncs-syncs, fs.writes-writes
		return err
	})
	if err != nil {
		return err
	}
	lc.out["store.save_ms"] = ms(d)
	lc.out["store.syncs_per_save"] = float64(syncs)
	lc.out["store.fs_bytes_per_row"] = float64(writes) / float64(len(rows))
	info, err := st.Info("probe")
	if err != nil {
		return err
	}
	lc.out["store.bytes_per_row"] = float64(info.Bytes) / float64(len(rows))

	d, err = lc.timeProbe("store.scan_ms", reps, func() error {
		_, err := st.Rows("probe")
		return err
	})
	if err != nil {
		return err
	}
	lc.out["store.scan_ms"] = ms(d)

	// A predicate that keeps the top 1% of the first integer column.
	key := -1
	for i, f := range schema.Fields() {
		if f.Type == storage.TypeInt {
			key = i
			break
		}
	}
	if key >= 0 {
		values := make([]int64, 0, len(rows))
		for _, r := range rows {
			if v, ok := r[key].(int64); ok {
				values = append(values, v)
			}
		}
		sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
		filter := store.Filter{{Col: schema.Field(key).Name, Op: store.OpGE, Value: values[len(values)*99/100]}}
		var stats store.ScanStats
		d, err = lc.timeProbe("store.scan_selective_ms", reps, func() error {
			var err error
			stats, err = st.Scan("probe", filter, func(*storage.ColumnBatch) error { return nil })
			return err
		})
		if err != nil {
			return err
		}
		lc.out["store.scan_selective_ms"] = ms(d)
		if total := stats.SegmentsScanned + stats.SegmentsSkipped; total > 0 {
			lc.out["store.segments_skipped_share"] = float64(stats.SegmentsSkipped) / float64(total)
		}
	}

	// Reopening replays the manifest log and re-verifies every segment.
	d, err = lc.timeProbe("store.open_ms", reps, func() error {
		if err := st.Close(); err != nil {
			return err
		}
		st, err = store.Open(dir, store.WithFS(fs))
		return err
	})
	lc.out["store.open_ms"] = ms(d)
	return err
}
