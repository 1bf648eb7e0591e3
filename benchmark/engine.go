package main

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/storage"
)

// engineWorkload is the shape engine-resident and engine-spill share: two
// generated tables, one engine on an nproc-slot cluster, one plan. One op is
// FromTable on both tables, the plan, and Engine.Collect — ingest is inside
// the op because a campaign pays it on every run.
type engineWorkload struct {
	env
	facts, dims *storage.Table
	cluster     *cluster.Cluster
	engine      *dataflow.Engine
	engineOpts  []dataflow.EngineOption
	// stages builds the plan cut after each stage, source first; the last
	// element is the whole plan. stageMetrics names the layer metric each cut
	// after the first adds.
	stages       func(facts, dims *dataflow.Dataset) []*dataflow.Dataset
	stageMetrics []string
	// guard checks the engine statistics that make the workload what it
	// claims to be (spilled or not, broadcast or not).
	guard func(dataflow.Stats) error
	want  []string
	keys  []sortKey
	// hashColumn is the key the storage.key_hash_ns probe encodes.
	hashColumn string

	last      *dataflow.Result
	baseUsage float64 // busy slot-seconds the cluster had accrued when set-up ended
}

func newEngine(slots int, opts ...dataflow.EngineOption) (*cluster.Cluster, *dataflow.Engine, error) {
	cl, err := cluster.New(cluster.Uniform(1, slots, 0))
	if err != nil {
		return nil, nil, err
	}
	e, err := dataflow.NewEngine(cl, append([]dataflow.EngineOption{dataflow.WithShufflePartitions(slots)}, opts...)...)
	return cl, e, err
}

func busySlotSeconds(u cluster.UsageReport) float64 {
	total := 0.0
	for _, s := range u.BusySlotSeconds {
		total += s
	}
	return total
}

// statCounts maps the engine statistics the public API returns onto the
// dataflow.* count metrics.
func statCounts(st dataflow.Stats) map[string]int64 {
	return map[string]int64{
		"dataflow.tasks": st.Tasks, "dataflow.stages": st.Stages, "dataflow.batches": st.Batches,
		"dataflow.shuffled_rows": st.ShuffledRows, "dataflow.broadcast_joins": st.BroadcastJoins,
		"dataflow.spilled_batches": st.SpilledBatches, "dataflow.spilled_bytes": st.SpilledBytes,
		"dataflow.spill_logical_bytes": st.SpillLogicalBytes, "dataflow.sort_runs": st.SortRuns,
		"dataflow.agg_groups": st.AggGroups,
	}
}

// finishSetUp builds the engine, keeps the reference output, runs the warm-up
// op and verifies it.
func (w *engineWorkload) finishSetUp(ctx context.Context, reference [][]any,
	hasher *corpusHasher, sizing map[string]int) (*instance, error) {
	var err error
	if w.cluster, w.engine, err = newEngine(w.nproc, w.engineOpts...); err != nil {
		return nil, err
	}
	w.want = canonical(reference)
	if _, err := w.op(ctx, 0, 0, nil); err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	if err := w.verifyLast(); err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	w.baseUsage = busySlotSeconds(w.cluster.Usage())
	return &instance{
		clients:    1, // a batch driver: each Collect already fans out over every slot
		op:         w.op,
		verifyLast: w.verifyLast,
		layers:     w.layers,
		close:      func() error { return nil },
		corpusHash: hasher.sum(),
		sizing:     sizing,
	}, nil
}

func (w *engineWorkload) op(ctx context.Context, _, _ int, tr *opTrace) (opCount, error) {
	end := tr.call("dataflow.ingest_ms")
	facts, dims := dataflow.FromTable(w.facts), dataflow.FromTable(w.dims)
	stages := w.stages(facts, dims)
	end()
	end = tr.call("dataflow.collect_ms")
	res, err := w.engine.Collect(ctx, stages[len(stages)-1])
	end()
	if err != nil {
		return opCount{}, err
	}
	w.last = res
	return opCount{rows: int64(w.facts.NumRows() + w.dims.NumRows()), campaigns: 1}, nil
}

func (w *engineWorkload) verifyLast() error {
	if err := w.guard(w.last.Stats); err != nil {
		return err
	}
	return checkOutput(w.last.Rows, w.want, w.keys)
}

// layers reads the last op's engine statistics and runs the probes the engine
// workloads own: per-stage cost by prefix-plan differencing, the one-slot
// baseline, and the storage kernels on the workload's own batches.
func (w *engineWorkload) layers(ctx context.Context, lc *layerCtx) error {
	busy := busySlotSeconds(w.cluster.Usage()) - w.baseUsage
	lc.out["cluster.busy_share"] = busy / (float64(w.nproc) * lc.elapsed.Seconds())

	for name, v := range statCounts(w.last.Stats) {
		lc.out[name] = float64(v)
	}
	lc.out["dataflow.collect_ms"] = ms(lc.medianOf("dataflow.collect_ms"))

	// Count of the plan cut after each stage, on fresh datasets each time so
	// every cut pays the same ingest; the difference between successive cuts
	// is the stage. The cuts of one repetition run back to back and are
	// differenced within the repetition, so a machine that drifts between
	// repetitions moves both sides of a difference together. A difference can
	// come out negative when a later cut is cheaper than its predecessor
	// (counting a join's output forces it to be built; the group-by after it
	// consumes it without): it is reported as measured.
	const cutReps = 5
	source := make([]time.Duration, cutReps)
	stage := make([][]time.Duration, len(w.stageMetrics))
	for rep := 0; rep < cutReps; rep++ {
		var prev time.Duration
		for k := 0; k <= len(w.stageMetrics); k++ {
			name := "dataflow.cut.source"
			if k > 0 {
				name = "dataflow.cut." + w.stageMetrics[k-1]
			}
			d, err := lc.timeProbe(name, 1, func() error {
				stages := w.stages(dataflow.FromTable(w.facts), dataflow.FromTable(w.dims))
				_, err := w.engine.Count(ctx, stages[k])
				return err
			})
			if err != nil {
				return err
			}
			if k == 0 {
				source[rep] = d
			} else {
				stage[k-1] = append(stage[k-1], d-prev)
			}
			prev = d
		}
	}
	// Ingest is the FromTable snapshot plus what the first action pays to turn
	// boxed rows into column batches, which the bare-source cut isolates.
	lc.out["dataflow.ingest_ms"] = ms(lc.medianOf("dataflow.ingest_ms") + median(source))
	for k, metric := range w.stageMetrics {
		lc.out[metric] = ms(median(stage[k]))
	}

	lc.out["dataflow.scaling_1_to_n"] = 1
	if w.nproc > 1 {
		_, single, err := newEngine(1, w.engineOpts...)
		if err != nil {
			return err
		}
		d, err := lc.timeProbe("dataflow.scaling_1_to_n", 3, func() error {
			stages := w.stages(dataflow.FromTable(w.facts), dataflow.FromTable(w.dims))
			_, err := single.Collect(ctx, stages[len(stages)-1])
			return err
		})
		if err != nil {
			return err
		}
		lc.out["dataflow.scaling_1_to_n"] = float64(d) / float64(lc.opP50)
	}
	return probeStorage(lc, w.facts, w.hashColumn)
}

// ---------------------------------------------------------------------------
// engine-resident
// ---------------------------------------------------------------------------

func setUpEngineResident(ctx context.Context, e env) (*instance, error) {
	factSpec := tableSpec{Name: "facts", Rows: e.pick(1_000_000, 2_000), Columns: []columnSpec{
		{Name: "id", Type: storage.TypeInt, Gen: "serial"},
		{Name: "key", Type: storage.TypeInt, Gen: "cycle", Card: 64},
		// 0, 1/8, …, 100: seeded, and exact under addition.
		{Name: "value", Type: storage.TypeFloat, Gen: "uniform", Card: 801, Step: 0.125},
	}}
	dimSpec := tableSpec{Name: "dims", Rows: 64, Columns: []columnSpec{
		{Name: "key", Type: storage.TypeInt, Gen: "serial"},
		{Name: "segment", Type: storage.TypeString, Gen: "cycle", Card: 8, Prefix: "segment-", Width: [2]int{9, 9}},
	}}
	hasher := newCorpusHasher()
	facts, err := generate(factSpec, e.seed, 2*e.nproc, hasher)
	if err != nil {
		return nil, err
	}
	dims, err := generate(dimSpec, e.seed, 2, hasher)
	if err != nil {
		return nil, err
	}
	w := &engineWorkload{
		env: e, facts: facts, dims: dims,
		// The Figure-2 plan: a scoring closure, a filter, a broadcast join on
		// 64 keys, a group-by, an ordered report.
		stages: func(facts, dims *dataflow.Dataset) []*dataflow.Dataset {
			narrow := facts.
				WithColumn(storage.Field{Name: "score", Type: storage.TypeFloat}, func(r dataflow.Record) (storage.Value, error) {
					return scoreOf(r.Float("value")), nil
				}).
				Filter("value >= 10", func(r dataflow.Record) (bool, error) { return r.Float("value") >= 10, nil })
			joined := narrow.Join(dims, "key", "key", dataflow.InnerJoin)
			grouped := joined.GroupBy("segment").Agg(dataflow.Count(), dataflow.Sum("score"), dataflow.Avg("value"))
			sorted := grouped.Sort(dataflow.SortOrder{Column: "sum_score", Descending: true}, dataflow.SortOrder{Column: "segment"})
			return []*dataflow.Dataset{facts, narrow, joined, grouped, sorted}
		},
		stageMetrics: []string{"dataflow.narrow_ms", "dataflow.join_ms", "dataflow.groupby_ms", "dataflow.sort_ms"},
		guard: func(st dataflow.Stats) error {
			if st.SpilledBatches != 0 || st.BroadcastJoins != 1 {
				return fmt.Errorf("engine-resident must spill nothing and broadcast its join: spilled_batches=%d broadcast_joins=%d",
					st.SpilledBatches, st.BroadcastJoins)
			}
			return nil
		},
		keys:       []sortKey{{col: 2, desc: true}, {col: 0}},
		hashColumn: "key",
	}
	factRows, dimRows := make([]factRow, 0, factSpec.Rows), make([]dimRow, 0, dimSpec.Rows)
	facts.Scan(func(r storage.Row) bool {
		factRows = append(factRows, factRow{key: r[1].(int64), value: r[2].(float64)})
		return true
	})
	dims.Scan(func(r storage.Row) bool {
		dimRows = append(dimRows, dimRow{key: r[0].(int64), segment: r[1].(string)})
		return true
	})
	return w.finishSetUp(ctx, residentReference(factRows, dimRows), hasher,
		map[string]int{"fact_rows": factSpec.Rows, "dim_rows": dimSpec.Rows})
}

// ---------------------------------------------------------------------------
// engine-spill
// ---------------------------------------------------------------------------

// spillBudget is the memory budget engine-spill runs under; every other
// engine switch stays at its default.
const spillBudget = 4 << 20

func setUpEngineSpill(ctx context.Context, e env) (*instance, error) {
	users := e.pick(50_000, 12_000) // the toy build side still exceeds the 10,000-row broadcast threshold
	user := columnSpec{Name: "user", Type: storage.TypeString, Prefix: "u", Width: [2]int{6, 11}}
	eventSpec := tableSpec{Name: "events", Rows: e.pick(400_000, 20_000), Columns: []columnSpec{
		{Name: "event_id", Type: storage.TypeInt, Gen: "serial"},
		withGen(user, "zipf", users, 1.2),
		{Name: "page", Type: storage.TypeString, Gen: "uniform", Card: 500, Prefix: "/p/", Width: [2]int{6, 11}},
		// Whole cents up to 500.00, 2% missing.
		{Name: "amount", Type: storage.TypeFloat, Gen: "uniform", Card: 50_001, Nulls: 0.02},
	}}
	userSpec := tableSpec{Name: "users", Rows: users, Columns: []columnSpec{
		withGen(user, "serial", 0, 0),
		{Name: "country", Type: storage.TypeString, Gen: "uniform", Card: 40, Prefix: "c", Width: [2]int{6, 11}},
	}}
	hasher := newCorpusHasher()
	events, err := generate(eventSpec, e.seed, 2*e.nproc, hasher)
	if err != nil {
		return nil, err
	}
	usersTable, err := generate(userSpec, e.seed, 2*e.nproc, hasher)
	if err != nil {
		return nil, err
	}
	budget := int64(spillBudget)
	if e.toy {
		budget = 64 << 10 // small enough that 20,000 rows still spill
	}
	w := &engineWorkload{
		env: e, facts: events, dims: usersTable,
		engineOpts: []dataflow.EngineOption{dataflow.WithMemoryBudget(budget)},
		stages: func(events, users *dataflow.Dataset) []*dataflow.Dataset {
			joined := events.Join(users, "user", "user", dataflow.InnerJoin)
			grouped := joined.GroupBy("user", "page", "country").Agg(dataflow.Count(), dataflow.Sum("amount"))
			sorted := grouped.Sort(dataflow.SortOrder{Column: "sum_amount", Descending: true}, dataflow.SortOrder{Column: "user"})
			return []*dataflow.Dataset{events, joined, grouped, sorted}
		},
		stageMetrics: []string{"dataflow.join_ms", "dataflow.groupby_ms", "dataflow.sort_ms"},
		guard: func(st dataflow.Stats) error {
			if st.SpilledBatches == 0 || st.SortRuns == 0 || st.BroadcastJoins != 0 {
				return fmt.Errorf("engine-spill must spill, merge sort runs and broadcast nothing: spilled_batches=%d sort_runs=%d broadcast_joins=%d",
					st.SpilledBatches, st.SortRuns, st.BroadcastJoins)
			}
			return nil
		},
		keys:       []sortKey{{col: 4, desc: true}, {col: 0}},
		hashColumn: "user",
	}
	eventRows, userRows := make([]eventRow, 0, eventSpec.Rows), make([]userRow, 0, userSpec.Rows)
	events.Scan(func(r storage.Row) bool {
		amount, ok := r[3].(float64)
		eventRows = append(eventRows, eventRow{user: r[1].(string), page: r[2].(string), amount: amount, hasAmount: ok})
		return true
	})
	usersTable.Scan(func(r storage.Row) bool {
		userRows = append(userRows, userRow{user: r[0].(string), country: r[1].(string)})
		return true
	})
	return w.finishSetUp(ctx, spillReference(eventRows, userRows), hasher,
		map[string]int{"event_rows": eventSpec.Rows, "user_rows": userSpec.Rows, "memory_budget": int(budget)})
}

func withGen(c columnSpec, gen string, card int, skew float64) columnSpec {
	c.Gen, c.Card, c.Skew = gen, card, skew
	return c
}

// ---------------------------------------------------------------------------
// storage probes
// ---------------------------------------------------------------------------

const (
	probeBatchRows = 4096
	probeBatches   = 64
)

// probeStorage times the storage kernels the engine leans on — row-to-batch
// conversion, the spill frame codec, spill write and read-back under the
// 4 MiB budget, the external-sort merge, key hashing — on 4,096-row batches
// cut from the workload's own fact table.
func probeStorage(lc *layerCtx, table *storage.Table, hashColumn string) error {
	schema := table.Schema()
	rows := table.Rows()
	if len(rows) > probeBatches*probeBatchRows {
		rows = rows[:probeBatches*probeBatchRows]
	}
	// Column 0 is the serial id of both fact tables; sorting each chunk on it
	// makes every batch a sorted run for the merge probe.
	var chunks [][]storage.Row
	for lo := 0; lo < len(rows); lo += probeBatchRows {
		chunk := append([]storage.Row(nil), rows[lo:min(lo+probeBatchRows, len(rows))]...)
		sort.Slice(chunk, func(i, j int) bool { return chunk[i][0].(int64) < chunk[j][0].(int64) })
		chunks = append(chunks, chunk)
	}
	const reps = 3
	codec := storage.CodecOptions{Compress: true} // what the engine spills with by default

	var batches []*storage.ColumnBatch
	d, err := lc.timeProbe("storage.batch_from_rows_mrows_s", reps, func() error {
		batches = batches[:0]
		for _, chunk := range chunks {
			b, err := storage.BatchFromRows(schema, chunk)
			if err != nil {
				return err
			}
			batches = append(batches, b)
		}
		return nil
	})
	if err != nil {
		return err
	}
	lc.out["storage.batch_from_rows_mrows_s"] = float64(len(rows)) / 1e6 / d.Seconds()

	var rawBytes, encodedBytes int64
	for _, b := range batches {
		rawBytes += storage.EncodedSizeV1(b)
	}
	rawMB := float64(rawBytes) / 1e6
	var frames [][]byte
	d, _ = lc.timeProbe("storage.encode_mb_s", reps, func() error {
		frames = frames[:0]
		for _, b := range batches {
			frames = append(frames, storage.EncodeBatchOpts(nil, b, codec))
		}
		return nil
	})
	for _, f := range frames {
		encodedBytes += int64(len(f))
	}
	lc.out["storage.encode_mb_s"] = rawMB / d.Seconds()
	lc.out["storage.frame_ratio"] = float64(encodedBytes) / float64(rawBytes)

	d, err = lc.timeProbe("storage.decode_mb_s", reps, func() error {
		for _, f := range frames {
			if _, err := storage.DecodeBatch(schema, f); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	lc.out["storage.decode_mb_s"] = rawMB / d.Seconds()

	// Spill write and read-back: one partition store per repetition, because
	// a store spills each batch once.
	var writes, reads []time.Duration
	var spilledMB float64
	for i := 0; i < reps; i++ {
		ps, err := storage.NewPartitionStore(schema, 1, storage.WithMemoryBudget(spillBudget), storage.WithCodec(codec))
		if err != nil {
			return err
		}
		end := lc.tr.probe("storage.spill_write_mb_s")
		for _, b := range batches {
			if err := ps.Append(0, b); err != nil {
				ps.Close()
				return err
			}
		}
		writes = append(writes, end())
		end = lc.tr.probe("storage.spill_read_mb_s")
		err = ps.EachBatch(0, func(*storage.ColumnBatch) error { return nil })
		reads = append(reads, end())
		spilledMB = float64(ps.SpilledLogicalBytes()) / 1e6
		if cerr := ps.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	lc.out["storage.spill_write_mb_s"] = spilledMB / median(writes).Seconds()
	lc.out["storage.spill_read_mb_s"] = spilledMB / median(reads).Seconds()

	byID := func(a *storage.ColumnBatch, ai int, b *storage.ColumnBatch, bi int) int {
		x, _ := a.IntAt(ai, 0)
		y, _ := b.IntAt(bi, 0)
		return cmp.Compare(x, y)
	}
	d, err = lc.timeProbe("storage.merge_mrows_s", reps, func() error {
		rs, err := storage.NewRunStore(schema, spillBudget)
		if err != nil {
			return err
		}
		rs.SetCodec(codec)
		for _, b := range batches {
			if err := rs.AppendRun(b); err != nil {
				rs.Close()
				return err
			}
		}
		err = rs.Merge(byID, probeBatchRows, func(*storage.ColumnBatch) error { return nil })
		if cerr := rs.Close(); err == nil {
			err = cerr
		}
		return err
	})
	if err != nil {
		return err
	}
	lc.out["storage.merge_mrows_s"] = float64(len(rows)) / 1e6 / d.Seconds()

	enc, err := storage.NewKeyEncoder(schema, hashColumn)
	if err != nil {
		return err
	}
	var sink uint64
	d, _ = lc.timeProbe("storage.key_hash_ns", reps, func() error {
		for _, b := range batches {
			for i := 0; i < b.Len(); i++ {
				sink ^= enc.BatchHash(b, i)
			}
		}
		return nil
	})
	runtime.KeepAlive(sink) // so the compiler cannot drop the loop
	lc.out["storage.key_hash_ns"] = float64(d) / float64(len(rows))
	return nil
}
