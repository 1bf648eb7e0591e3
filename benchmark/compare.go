package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// contract is the part of BENCHMARK.json compare judges by.
type contract struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []contractMetric        `json:"end_to_end"`
	PerLayer  []contractMetric        `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// runCompare judges set B (the change) against set A (the parent). A set is a
// directory of result files written with -out; run it from the repository
// root, where BENCHMARK.json holds the bounds.
func runCompare(args []string, out io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: benchmark compare <setA-dir> <setB-dir>")
	}
	c, err := loadContract("BENCHMARK.json")
	if err != nil {
		return err
	}
	a, err := loadSet(args[0])
	if err != nil {
		return err
	}
	b, err := loadSet(args[1])
	if err != nil {
		return err
	}
	worse, err := compareSets(out, c, a, b)
	if err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d workload × metric pairs got worse by more than their bound", worse)
	}
	return nil
}

// loadSet reads every *.json result in dir, in file-name order (the order
// runs are paired in).
func loadSet(dir string) ([]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var set []*result
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Workload == "" || len(r.Metrics) == 0 {
			return nil, fmt.Errorf("%s is not a benchmark result", p)
		}
		set = append(set, &r)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	return set, nil
}

// values collects one metric of one workload from a set's runs of one kind.
func values(set []*result, workload string, traced bool, metric string) []float64 {
	var out []float64
	for _, r := range set {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Traced == traced {
			out = append(out, m.Value)
		}
	}
	return out
}

// quartiles returns what Python's statistics.quantiles(v, n=4) returns (the
// exclusive method), the statistic the benchmark contract's spreads use.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// verdict applies the bound of BENCHMARK.json and the pair rule of the
// choosing-metrics guide (§6.5, §8) to one workload × metric.
func verdict(a, b []float64, higherBetter bool, bound float64) (string, float64) {
	aq1, am, aq3 := quartiles(a)
	_, bm, _ := quartiles(b)
	change := (bm - am) / math.Abs(am)
	worsening := change
	if higherBetter {
		worsening = -change
	}
	spread := (aq3 - aq1) / math.Abs(am)

	better := func(x, y float64) bool { // x better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	everyBBeatsEveryA := true
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				everyBBeatsEveryA = false
			}
		}
	}
	switch {
	case worsening > bound && worsening > spread:
		return "worse", change
	case worsening > bound:
		return "unresolved", change // past the bound, but inside the parent's own spread
	case -worsening > spread && float64(wins) >= 0.9*float64(pairs):
		return "better", change
	case spread > bound && !everyBBeatsEveryA:
		return "unresolved", change // the runs cannot resolve a change the size of the bound
	}
	return "unchanged", change
}

func describe(v []float64) string {
	q1, m, q3 := quartiles(v)
	return fmt.Sprintf("%.5g [%.5g .. %.5g]", m, q1, q3)
}

// compareSets prints the verdict table and returns the number of "worse".
func compareSets(out io.Writer, c *contract, a, b []*result) (int, error) {
	worse := 0
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1 .. q3]\tB median [q1 .. q3]\tchange\tbound\tverdict")
	for _, w := range c.Workloads {
		if err := comparable(a, b, w.Name); err != nil {
			return 0, err
		}
		for _, m := range c.EndToEnd {
			va, vb := values(a, w.Name, false, m.Name), values(b, w.Name, false, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, change := verdict(va, vb, m.Better == "higher", m.Bound)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s %s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\n",
				w.Name, m.Name, m.Unit, describe(va), describe(vb), 100*change, 100*m.Bound, v)
		}
		// Failures have an absolute bound of zero: any more than the parent is worse.
		fa, fb := failures(a, w.Name), failures(b, w.Name)
		v := "unchanged"
		if fb > fa {
			v = "worse"
			worse++
		}
		fmt.Fprintf(tw, "%s\tfailed ops and checks\t%d\t%d\t\t0\t%s\n", w.Name, fa, fb, v)
	}
	if err := tw.Flush(); err != nil {
		return 0, err
	}

	// Per-layer metrics ride along ungated. The counts that must repeat
	// exactly for a seed are marked when they do not.
	fmt.Fprintln(out)
	tw = tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tlayer metric\tA median\tB median\tchange\tnote")
	for _, w := range c.Workloads {
		for _, m := range c.PerLayer {
			va, vb := values(a, w.Name, true, m.Name), values(b, w.Name, true, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			_, am, _ := quartiles(va)
			_, bm, _ := quartiles(vb)
			if am == 0 && bm == 0 {
				continue // a layer this workload does not call
			}
			note := ""
			if exactLayerMetrics[m.Name] {
				note = "identical"
				for _, x := range append(append([]float64(nil), va...), vb...) {
					if x != va[0] {
						note = "DIFFERS (must repeat exactly)"
					}
				}
			}
			change := "n/a"
			if am != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(bm-am)/math.Abs(am))
			}
			fmt.Fprintf(tw, "%s\t%s %s\t%.5g\t%.5g\t%s\t%s\n", w.Name, m.Name, m.Unit, am, bm, change, note)
		}
	}
	return worse, tw.Flush()
}

func failures(set []*result, workload string) int {
	n := 0
	for _, r := range set {
		if r.Workload == workload {
			n += r.Failed
		}
	}
	return n
}

// comparable refuses to compare runs that did not measure the same thing:
// seed, corpus, sizing and window length must agree across both sets.
func comparable(a, b []*result, workload string) error {
	var first *result
	for _, r := range append(append([]*result(nil), a...), b...) {
		if r.Workload != workload {
			continue
		}
		if first == nil {
			first = r
			continue
		}
		x, y := first.Meta, r.Meta
		if x.Seed != y.Seed || x.CorpusHash != y.CorpusHash || x.Seconds != y.Seconds || fmt.Sprint(x.Sizing) != fmt.Sprint(y.Sizing) {
			return fmt.Errorf("%s: runs differ in seed, corpus, sizing or window (seed %d corpus %s %gs vs seed %d corpus %s %gs)",
				workload, x.Seed, x.CorpusHash, x.Seconds, y.Seed, y.CorpusHash, y.Seconds)
		}
	}
	return nil
}
