package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
)

// env is what a workload's set-up receives: the seed its inputs derive from,
// a private directory for everything it writes, and the machine's width.
type env struct {
	seed  int64
	dir   string
	nproc int
	// toy shrinks every sizing to a few thousand rows: the smoke test's
	// setting, never a measured one.
	toy bool
	// traced tells a workload to keep what the layer metrics need.
	traced bool
}

// pick returns the measured sizing, or the toy one under the smoke test.
func (e env) pick(full, toy int) int {
	if e.toy {
		return toy
	}
	return full
}

// opCount is what one op consumed and completed. kind tells apart the ops of a
// workload that rotates through several (serve-closed's five challenges); the
// other workloads leave it 0.
type opCount struct {
	rows, campaigns int64
	kind            int
}

// An instance is one workload after set-up: inputs generated, system
// constructed, warm-up ops run and verified.
type instance struct {
	// clients is the number of closed-loop client goroutines; each waits for
	// its reply before sending the next op.
	clients int
	// op runs sample i of one client. tr is nil on an untraced op.
	op func(ctx context.Context, client, i int, tr *opTrace) (opCount, error)
	// verifyLast checks the output each client's most recent op left behind.
	verifyLast func() error
	// layers runs once, after the traced window: it reads the layer counts
	// the public API returned during the window, runs the layer probes this
	// workload owns, and stores one value per metric into lc.out.
	layers func(ctx context.Context, lc *layerCtx) error
	close  func() error

	corpusHash string
	sizing     map[string]int
}

// layerCtx is what instance.layers works with.
type layerCtx struct {
	env
	tr      *tracer
	out     map[string]float64
	ops     []time.Duration // every op the traced window timed
	opP50   time.Duration   // their median, the base of ratios
	elapsed time.Duration   // the traced window
}

// medianOf is the median duration of the spans with the given name.
func (lc *layerCtx) medianOf(name string) time.Duration { return median(lc.tr.durations(name)) }

// timeProbe runs fn reps times under a probe span and returns the median.
func (lc *layerCtx) timeProbe(name string, reps int, fn func() error) (time.Duration, error) {
	ds := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		end := lc.tr.probe(name)
		err := fn()
		d := end()
		if err != nil {
			return 0, fmt.Errorf("probe %s: %w", name, err)
		}
		ds = append(ds, d)
	}
	return median(ds), nil
}

type workloadDef struct {
	name  string
	setUp func(ctx context.Context, e env) (*instance, error)
}

// workloads lists the four workloads. The names are fixed: issues refer to
// them. Why each exists is recorded in BENCHMARK.json and README.md.
var workloads = []workloadDef{
	{"engine-resident", setUpEngineResident},
	{"engine-spill", setUpEngineSpill},
	{"campaign-round", setUpCampaignRound},
	{"serve-closed", setUpServeClosed},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// dir is the scratch directory the run may write under; the run makes and
	// removes its own subdirectory.
	dir string
	toy bool
}

// result is what one run reports; it is also the -out file format that
// compare reads.
type result struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Meta      meta                   `json:"_meta"`
	// Errors lists every failed op and failed output check.
	Errors []string `json:"errors,omitempty"`

	spans *tracer
}

// setUpsPerRun is how many times an untraced run sets the workload up; setup_s
// is the median, and the last instance is the one that gets timed.
const setUpsPerRun = 3

type sample struct {
	dur    time.Duration
	kind   int
	traced bool
}

// typicalOp is the median op latency. Where a workload rotates through several
// kinds of op, the median is taken per kind and the kinds are averaged: the
// plain median of a multimodal mix sits on the cliff between two modes, and on
// serve-closed moved 25% when the system moved 5%.
func typicalOp(samples []sample) time.Duration {
	byKind := map[int][]time.Duration{}
	for _, s := range samples {
		byKind[s.kind] = append(byKind[s.kind], s.dur)
	}
	var sum time.Duration
	for _, ds := range byKind {
		sum += median(ds)
	}
	return sum / time.Duration(len(byKind))
}

// runWorkload sets the workload up, times the closed loop for cfg.seconds,
// verifies outputs, and — in a traced run — derives the per-layer metrics.
func runWorkload(ctx context.Context, cfg runConfig) (res *result, err error) {
	def, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	// Whatever the system writes to "the temp directory" (spill files by
	// default) lands in the run's own directory, inside the checkout.
	if old, had := os.LookupEnv("TMPDIR"); had {
		defer os.Setenv("TMPDIR", old)
	} else {
		defer os.Unsetenv("TMPDIR")
	}
	if err := os.Setenv("TMPDIR", runDir); err != nil {
		return nil, err
	}

	e := env{seed: cfg.seed, dir: runDir, nproc: runtime.NumCPU(), toy: cfg.toy, traced: cfg.traced}
	setUps := setUpsPerRun
	if cfg.traced || cfg.toy {
		setUps = 1 // setup_s is an end-to-end metric: only the untraced run reports it
	}
	inst, setUpTimes, err := setUpRepeatedly(ctx, def, e, setUps)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := inst.close(); err == nil && cerr != nil {
			res, err = nil, fmt.Errorf("close %s: %w", def.name, cerr)
		}
	}()

	res = &result{Workload: def.name, Traced: cfg.traced, Metrics: map[string]metricValue{}}
	if cfg.traced {
		res.spans = newTracer()
	}
	window := measureWindow(ctx, inst, time.Duration(cfg.seconds*float64(time.Second)), res.spans)
	res.Attempted = len(window.samples) + len(window.errs)
	for _, e := range window.errs {
		res.Errors = append(res.Errors, "op: "+e.Error())
	}
	if len(window.samples) == 0 {
		return nil, fmt.Errorf("no op of %s completed: %v", def.name, res.Errors)
	}
	if err := inst.verifyLast(); err != nil {
		res.Errors = append(res.Errors, "verify last op: "+err.Error())
	}
	res.Failed = len(res.Errors)
	res.Correct = res.Failed == 0
	res.Meta = collectMeta(cfg, inst, len(window.samples), e.nproc)

	if !cfg.traced {
		ops := float64(len(window.samples))
		values := map[string]float64{
			"setup_s":         median(setUpTimes).Seconds(),
			"op_p50_ms":       ms(typicalOp(window.samples)),
			"rows_per_s":      float64(window.total.rows) / window.elapsed.Seconds(),
			"campaigns_per_s": float64(window.total.campaigns) / window.elapsed.Seconds(),
			"cpu_ms_per_op":   ms(window.cpu) / ops,
			"peak_rss_mb":     peakRSSMB(),
		}
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
		}
		return res, nil
	}
	values, err := layerMetrics(ctx, inst, e, window, res.spans)
	if err != nil {
		return nil, fmt.Errorf("layer metrics of %s: %w", def.name, err)
	}
	for _, d := range perLayer {
		res.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
	}
	return res, nil
}

// setUpRepeatedly sets the workload up n times, each in a directory of its
// own, closing every instance but the last; it returns that one and how long
// each set-up took, forced GC included.
func setUpRepeatedly(ctx context.Context, def workloadDef, e env, n int) (*instance, []time.Duration, error) {
	var inst *instance
	var times []time.Duration
	runDir := e.dir
	for i := 0; i < n; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, fmt.Errorf("close set-up %d of %s: %w", i, def.name, err)
			}
			inst = nil
			runtime.GC()
			debug.FreeOSMemory() // so an earlier set-up's garbage does not count toward peak_rss_mb
		}
		e.dir = fmt.Sprintf("%s/setup-%d", runDir, i)
		if err := os.Mkdir(e.dir, 0o755); err != nil {
			return nil, nil, err
		}
		start := time.Now()
		var err error
		if inst, err = def.setUp(ctx, e); err != nil {
			return nil, nil, fmt.Errorf("set up %s: %w", def.name, err)
		}
		runtime.GC()
		times = append(times, time.Since(start))
	}
	return inst, times, nil
}

// layerMetrics derives the per-layer metrics of a traced run: the runtime and
// trace groups and the cluster dispatch probe here, the rest by the workload.
func layerMetrics(ctx context.Context, inst *instance, e env, window windowStats, tr *tracer) (map[string]float64, error) {
	lc := &layerCtx{env: e, tr: tr, out: map[string]float64{}, elapsed: window.elapsed, opP50: typicalOp(window.samples)}
	var tracedOps, untracedOps []sample
	for _, s := range window.samples {
		lc.ops = append(lc.ops, s.dur)
		if s.traced {
			tracedOps = append(tracedOps, s)
		} else {
			untracedOps = append(untracedOps, s)
		}
	}
	ops := float64(len(window.samples))
	lc.out["runtime.allocs_per_row"] = float64(window.mallocs) / float64(max(window.total.rows, 1))
	lc.out["runtime.alloc_bytes_per_op"] = float64(window.allocBytes) / ops
	lc.out["runtime.gc_cpu_share"] = window.gcCPU.Seconds() / window.cpu.Seconds()
	lc.out["runtime.gc_cycles_per_op"] = float64(window.gcCycles) / ops
	if len(tracedOps) > 0 && len(untracedOps) > 0 {
		lc.out["trace.overhead_share"] = float64(typicalOp(tracedOps))/float64(typicalOp(untracedOps)) - 1
	}
	lc.out["trace.unattributed_share"] = tr.unattributedShare()
	if err := probeClusterDispatch(ctx, lc); err != nil {
		return nil, err
	}
	if err := inst.layers(ctx, lc); err != nil {
		return nil, err
	}
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.Name] = true
	}
	for name := range lc.out {
		if !declared[name] {
			return nil, fmt.Errorf("layer metric %q is not declared in perLayer", name)
		}
	}
	return lc.out, nil
}

// windowStats is what the timed window measured.
type windowStats struct {
	samples    []sample
	errs       []error
	total      opCount
	elapsed    time.Duration
	cpu        time.Duration // user+sys of the whole process over the window
	gcCPU      time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
}

// measureWindow drives inst.clients closed-loop clients for d: each starts a
// new op only while the window is open and waits for its reply, so the window
// ends when the last in-flight op returns. With a tracer, every client traces
// about every other op and leaves the rest untraced; the two medians give the
// tracing overhead.
func measureWindow(ctx context.Context, inst *instance, d time.Duration, tr *tracer) windowStats {
	var (
		w  windowStats
		mu sync.Mutex
		wg sync.WaitGroup
	)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gcBefore, cpuBefore := gcCPUSeconds(), processCPU()
	start := time.Now()
	for c := 0; c < inst.clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			minOps := 1
			if tr != nil {
				minOps = 2 // one untraced, one traced
			}
			for i := 0; i < minOps || time.Since(start) < d; i++ {
				var ot *opTrace
				if tr != nil && tracedOp(i) {
					ot = tr.startOp(int64(i*inst.clients + client))
				}
				opStart := time.Now()
				n, err := inst.op(ctx, client, i, ot)
				dur := time.Since(opStart)
				ot.finish()
				mu.Lock()
				if err != nil {
					w.errs = append(w.errs, err)
				} else {
					w.samples = append(w.samples, sample{dur, n.kind, ot != nil})
					w.total.rows += n.rows
					w.total.campaigns += n.campaigns
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	w.cpu = processCPU() - cpuBefore
	w.gcCPU = time.Duration((gcCPUSeconds() - gcBefore) * float64(time.Second))
	runtime.ReadMemStats(&after)
	w.mallocs = after.Mallocs - before.Mallocs
	w.allocBytes = after.TotalAlloc - before.TotalAlloc
	w.gcCycles = after.NumGC - before.NumGC
	return w
}

// tracedOp picks the ops a traced run traces: op 1, and from there a
// golden-ratio sequence that selects half the ops without a period, so that
// nothing periodic in the system (a GC cycle every second op) lines up with
// the choice.
func tracedOp(i int) bool { return uint32(i)*2654435761>>31 == 1 }

// processCPU is the user+system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func gcCPUSeconds() float64 {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// probeClusterDispatch measures what the cluster charges per task when the
// task does nothing: one job of 1,000 no-op tasks on nproc slots.
func probeClusterDispatch(ctx context.Context, lc *layerCtx) error {
	cl, err := cluster.New(cluster.Uniform(1, lc.nproc, 0))
	if err != nil {
		return err
	}
	const n = 1000
	tasks := make([]cluster.Task, n)
	for i := range tasks {
		tasks[i] = cluster.Task{Name: "noop", Fn: func(context.Context, cluster.Node) error { return nil }}
	}
	d, err := lc.timeProbe("cluster.dispatch_us", 5, func() error {
		_, err := cl.RunNamedJob(ctx, "noop", tasks)
		return err
	})
	lc.out["cluster.dispatch_us"] = us(d) / n
	return err
}
