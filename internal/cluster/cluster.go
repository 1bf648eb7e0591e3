// Package cluster simulates the compute substrate the deployed Big Data
// pipelines run on: a set of nodes with task slots, a task scheduler with
// retries, failure injection, and a usage-based cost accounting model.
//
// The TOREADOR platform deploys pipelines onto Spark/Hadoop-class clusters;
// this package is the substitution documented in DESIGN.md. Tasks are real Go
// functions executed on a bounded worker pool (one worker per task slot), so
// parallelism, stragglers, retries and accounting behave like a scaled-down
// cluster rather than being numerically faked.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Node describes one simulated machine.
type Node struct {
	// ID is the unique node name.
	ID string
	// Slots is the number of tasks the node can run concurrently.
	Slots int
	// SpeedFactor scales simulated work duration: 1.0 is nominal, 0.5 runs
	// twice as slow. It does not slow real computation, only the optional
	// simulated service time added by tasks that request it.
	SpeedFactor float64
	// CostPerSlotHour is the accounting price of one busy slot-hour.
	CostPerSlotHour float64
	// FailureRate is the probability that a task attempt on this node fails
	// with a transient error (failure injection).
	FailureRate float64
}

// Validate reports configuration problems.
func (n Node) Validate() error {
	if n.ID == "" {
		return errors.New("cluster: node id must not be empty")
	}
	if n.Slots < 1 {
		return fmt.Errorf("cluster: node %s must have at least one slot", n.ID)
	}
	if n.SpeedFactor <= 0 {
		return fmt.Errorf("cluster: node %s speed factor must be positive", n.ID)
	}
	if n.FailureRate < 0 || n.FailureRate >= 1 {
		return fmt.Errorf("cluster: node %s failure rate %v out of [0,1)", n.ID, n.FailureRate)
	}
	return nil
}

// Config describes a simulated cluster.
type Config struct {
	Nodes []Node
	// MaxAttempts is the number of times a failed task is retried before the
	// job aborts. Values below 1 default to 3.
	MaxAttempts int
	// Seed drives failure injection; fixed seeds give reproducible runs.
	Seed int64
	// RetryBackoff delays retry attempts of transiently-failed tasks. The zero
	// value keeps the historical behaviour: retries fire immediately.
	RetryBackoff Backoff
}

// Backoff configures per-attempt capped exponential backoff with optional
// jitter for task retries. The zero value disables all delays.
type Backoff struct {
	// Base is the delay before the first retry; every further retry doubles
	// it. <= 0 disables backoff entirely.
	Base time.Duration
	// Max caps the exponential growth. <= 0 leaves the growth uncapped.
	Max time.Duration
	// Jitter in [0,1] spreads each delay uniformly over
	// [delay×(1-Jitter), delay×(1+Jitter)]. Jitter randomness is drawn from
	// the worker slot's seeded RNG, so delays are deterministic for a fixed
	// Config.Seed and slot layout.
	Jitter float64
}

// delay returns the pause before retry number retry (1-based).
func (b Backoff) delay(retry int, rng *workerRNG) time.Duration {
	if b.Base <= 0 || retry < 1 {
		return 0
	}
	d := b.Base
	for i := 1; i < retry; i++ {
		d *= 2
		if b.Max > 0 && d >= b.Max {
			d = b.Max
			break
		}
	}
	if b.Max > 0 && d > b.Max {
		d = b.Max
	}
	if b.Jitter > 0 {
		j := b.Jitter
		if j > 1 {
			j = 1
		}
		// Uniform in [1-j, 1+j]; the RNG draw keeps determinism per slot.
		d = time.Duration(float64(d) * (1 - j + 2*j*rng.float64()))
	}
	return d
}

// Uniform returns a homogeneous cluster configuration with the given number of
// nodes and slots per node.
func Uniform(nodes, slotsPerNode int, failureRate float64) Config {
	cfg := Config{MaxAttempts: 3, Seed: 1}
	for i := 0; i < nodes; i++ {
		cfg.Nodes = append(cfg.Nodes, Node{
			ID:              fmt.Sprintf("node-%02d", i+1),
			Slots:           slotsPerNode,
			SpeedFactor:     1.0,
			CostPerSlotHour: 0.35,
			FailureRate:     failureRate,
		})
	}
	return cfg
}

// Task is one schedulable unit of work. Fn receives the execution context and
// the node it was placed on.
type Task struct {
	// Name identifies the task in results and errors.
	Name string
	// Fn performs the work.
	Fn func(ctx context.Context, node Node) error
	// SimulatedServiceTime, when positive, adds an artificial busy wait scaled
	// by the node's SpeedFactor, used by deployment cost estimation benches.
	SimulatedServiceTime time.Duration
}

// Result reports the outcome of one task.
type Result struct {
	Task     string
	Node     string
	Attempts int
	Err      error
	Duration time.Duration
}

// ErrTaskFailed wraps a task error that exhausted its retry budget.
var ErrTaskFailed = errors.New("cluster: task failed after retries")

// errInjected marks a failure produced by the failure injector.
var errInjected = errors.New("cluster: injected transient failure")

// IsInjectedFailure reports whether err originates from failure injection.
func IsInjectedFailure(err error) bool { return errors.Is(err, errInjected) }

// Cluster is a running simulated cluster. Create with New, stop with Close.
type Cluster struct {
	cfg      Config
	nodes    []Node
	slotList []slot
	// usageMu guards the accounting below, which Usage reports.
	usageMu sync.Mutex
	// busySlotSeconds accumulates slot-seconds of executed work per node for
	// cost accounting.
	busySlotSeconds map[string]float64
	jobs            int64
	tasksRun        int64
	retries         int64
}

// New validates cfg and returns a cluster ready to run jobs.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: at least one node is required")
	}
	seen := map[string]bool{}
	for _, n := range cfg.Nodes {
		if err := n.Validate(); err != nil {
			return nil, err
		}
		if seen[n.ID] {
			return nil, fmt.Errorf("cluster: duplicate node id %q", n.ID)
		}
		seen[n.ID] = true
	}
	if cfg.MaxAttempts < 1 {
		cfg.MaxAttempts = 3
	}
	c := &Cluster{
		cfg:             cfg,
		nodes:           append([]Node(nil), cfg.Nodes...),
		busySlotSeconds: make(map[string]float64),
	}
	// One failure-injection RNG per worker slot, seeded Seed+worker index:
	// deterministic for a fixed seed and slot layout, and workers never
	// contend on a shared generator lock at high slot counts (each slot's
	// lock is touched by at most one goroutine per running job).
	worker := int64(0)
	for _, n := range c.nodes {
		for s := 0; s < n.Slots; s++ {
			c.slotList = append(c.slotList, slot{
				node: n,
				rng:  &workerRNG{seed: cfg.Seed + worker},
			})
			worker++
		}
	}
	return c, nil
}

// TotalSlots returns the number of task slots across all nodes.
func (c *Cluster) TotalSlots() int {
	total := 0
	for _, n := range c.nodes {
		total += n.Slots
	}
	return total
}

// workerRNG is one worker slot's failure-injection generator. The mutex only
// guards against concurrently running jobs sharing the slot list; within one
// job a slot is driven by a single goroutine, so the lock is uncontended.
// The generator is seeded on its first draw, so a cluster without failure
// injection or backoff jitter, which never draws, seeds no source at all.
type workerRNG struct {
	mu   sync.Mutex
	seed int64
	rng  *rand.Rand
}

func (w *workerRNG) float64() float64 {
	w.mu.Lock()
	if w.rng == nil {
		w.rng = rand.New(rand.NewSource(w.seed))
	}
	v := w.rng.Float64()
	w.mu.Unlock()
	return v
}

// slot pairs a node with one of its execution slots and that slot's private
// failure-injection RNG.
type slot struct {
	node Node
	rng  *workerRNG
}

func (sl slot) injectFailure() bool {
	if sl.node.FailureRate <= 0 {
		return false
	}
	return sl.rng.float64() < sl.node.FailureRate
}

// recordUsage accounts one finished task: its busy time on nodeID, whether
// it succeeded, and the retries it ran.
func (c *Cluster) recordUsage(nodeID string, res Result, retries int) {
	c.usageMu.Lock()
	defer c.usageMu.Unlock()
	c.busySlotSeconds[nodeID] += res.Duration.Seconds()
	if res.Err == nil {
		c.tasksRun++
	}
	c.retries += int64(retries)
}

// RunNamedJob executes all tasks on the cluster's slots as a single named job,
// retrying transient failures up to MaxAttempts per task. It returns the
// per-task results; the error is non-nil if any task ultimately failed or the
// context was cancelled. The name labels the job in errors. Every call with
// tasks counts as one job in UsageReport.Jobs, so callers that fuse many
// logical operators into one job — like the dataflow stage compiler — are
// visible as exactly one scheduled job rather than one per operator.
func (c *Cluster) RunNamedJob(ctx context.Context, name string, tasks []Task) ([]Result, error) {
	if len(tasks) == 0 {
		return nil, nil
	}
	if name == "" {
		name = "job"
	}
	c.usageMu.Lock()
	c.jobs++
	c.usageMu.Unlock()
	type indexed struct {
		idx  int
		task Task
	}
	queue := make(chan indexed, len(tasks))
	for i, t := range tasks {
		queue <- indexed{idx: i, task: t}
	}
	close(queue)

	results := make([]Result, len(tasks))
	var wg sync.WaitGroup
	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	for _, sl := range c.slotList {
		wg.Add(1)
		go func(sl slot) {
			defer wg.Done()
			for it := range queue {
				res := c.runTask(jobCtx, sl, it.task)
				results[it.idx] = res
				if res.Err != nil {
					// Abort the rest of the job: a failed task beyond the
					// retry budget fails the whole job, like a Spark stage.
					cancel()
				}
			}
		}(sl)
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return results, fmt.Errorf("cluster: job %s cancelled: %w", name, err)
	}
	// A failed task cancels the whole job, so sibling tasks may have recorded
	// the job-wide cancellation rather than the root cause. Report the first
	// real failure when one exists, so callers inspecting the error chain see
	// the task error, not a bystander's context.Canceled.
	var failed *Result
	for i := range results {
		r := &results[i]
		if r.Err == nil {
			continue
		}
		if failed == nil {
			failed = r
		}
		if !errors.Is(r.Err, context.Canceled) && !errors.Is(r.Err, context.DeadlineExceeded) {
			failed = r
			break
		}
	}
	if failed != nil {
		return results, fmt.Errorf("%w: job %s: %s on %s: %w", ErrTaskFailed, name, failed.Task, failed.Node, failed.Err)
	}
	return results, nil
}

func (c *Cluster) runTask(ctx context.Context, sl slot, task Task) Result {
	node := sl.node
	res := Result{Task: task.Name, Node: node.ID}
	start := time.Now()
	retries := 0
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		res.Attempts = attempt
		if err := ctx.Err(); err != nil {
			res.Err = err
			break
		}
		if attempt > 1 {
			retries++
		}
		err := c.attempt(ctx, sl, task)
		res.Err = err
		if err == nil {
			break
		}
		if !Transient(err) {
			// Permanent task errors are deterministic and cancellations are
			// final: neither is retried.
			break
		}
		if attempt < c.cfg.MaxAttempts {
			if d := c.cfg.RetryBackoff.delay(attempt, sl.rng); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					// Keep the transient root cause: the loop's next ctx check
					// records the cancellation if the job was torn down.
				}
			}
		}
	}
	res.Duration = time.Since(start)
	c.recordUsage(node.ID, res, retries)
	return res
}

// attempt runs one try of task on sl. A panic in task.Fn is recovered into an
// ErrTaskPanicked error, so it fails this task's job and not the process.
func (c *Cluster) attempt(ctx context.Context, sl slot, task Task) (err error) {
	if sl.injectFailure() {
		return errInjected
	}
	if task.SimulatedServiceTime > 0 {
		d := time.Duration(float64(task.SimulatedServiceTime) / sl.node.SpeedFactor)
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if task.Fn == nil {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = Recovered(r)
		}
	}()
	return task.Fn(ctx, sl.node)
}

// UsageReport summarises resource consumption and its monetary cost.
type UsageReport struct {
	// BusySlotSeconds per node.
	BusySlotSeconds map[string]float64
	// TotalCost in the cluster's currency unit.
	TotalCost float64
	// Jobs is the number of jobs RunNamedJob scheduled (calls with at
	// least one task).
	Jobs int64
	// TasksRun is the number of successful task executions.
	TasksRun int64
	// Retries is the number of attempts that re-ran a task after a transient
	// failure: a failure on the last attempt, or one whose job was cancelled
	// before the next attempt started, is not counted, because no retry
	// followed it.
	Retries int64
}

// Usage returns the accumulated usage since the cluster was created.
func (c *Cluster) Usage() UsageReport {
	c.usageMu.Lock()
	defer c.usageMu.Unlock()
	rep := UsageReport{BusySlotSeconds: make(map[string]float64, len(c.busySlotSeconds))}
	costPerNode := map[string]float64{}
	for _, n := range c.nodes {
		costPerNode[n.ID] = n.CostPerSlotHour
	}
	for id, secs := range c.busySlotSeconds {
		rep.BusySlotSeconds[id] = secs
		rep.TotalCost += secs / 3600 * costPerNode[id]
	}
	rep.Jobs, rep.TasksRun, rep.Retries = c.jobs, c.tasksRun, c.retries
	return rep
}

// String renders the usage report sorted by node id.
func (u UsageReport) String() string {
	ids := make([]string, 0, len(u.BusySlotSeconds))
	for id := range u.BusySlotSeconds {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	s := fmt.Sprintf("tasks=%d retries=%d cost=%.4f", u.TasksRun, u.Retries, u.TotalCost)
	for _, id := range ids {
		s += fmt.Sprintf(" %s=%.3fs", id, u.BusySlotSeconds[id])
	}
	return s
}
