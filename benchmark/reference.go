package main

// The reference implementations the engine workloads are verified against.
// This file deliberately imports nothing from the system under test: plain
// maps and sort over [][]any, the most naive thing that could be right. Every
// float the references add up is an exact binary fraction (see columnSpec.Step
// and scoreOf), so sums are order-independent and the engine's
// output must match bit for bit.

import (
	"cmp"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// scoreOf is the per-row numeric work of the engine-resident plan: the
// Figure-2 scoring loop, rounded to a multiple of 2^-10 so that a million of
// them sum exactly. The plan's WithColumn closure calls it too — it is the
// user's function, not the engine's.
func scoreOf(v float64) float64 {
	acc := 0.0
	for k := 1; k <= 200; k++ {
		acc += (v + float64(k)) / float64(k)
	}
	return math.Round(acc*1024) / 1024
}

// The input rows of the two engine workloads, as plain structs.
type (
	factRow struct {
		key   int64
		value float64
	}
	dimRow struct {
		key     int64
		segment string
	}
	eventRow struct {
		user, page string
		amount     float64
		hasAmount  bool
	}
	userRow struct{ user, country string }
)

// residentReference computes the engine-resident plan: score every fact, keep
// value >= 10, join dims on key, group by segment with count / sum(score) /
// avg(value), order by sum_score descending then segment.
func residentReference(facts []factRow, dims []dimRow) [][]any {
	segmentOf := map[int64]string{}
	for _, d := range dims {
		segmentOf[d.key] = d.segment
	}
	type acc struct {
		count    int64
		sumScore float64
		sumValue float64
	}
	groups := map[string]*acc{}
	for _, f := range facts {
		value := f.value
		if value < 10 {
			continue
		}
		segment, ok := segmentOf[f.key]
		if !ok {
			continue
		}
		g := groups[segment]
		if g == nil {
			g = &acc{}
			groups[segment] = g
		}
		g.count++
		g.sumScore += scoreOf(value)
		g.sumValue += value
	}
	out := make([][]any, 0, len(groups))
	for segment, g := range groups {
		out = append(out, []any{segment, g.count, g.sumScore, g.sumValue / float64(g.count)})
	}
	sort.Slice(out, func(i, j int) bool {
		if a, b := out[i][2].(float64), out[j][2].(float64); a != b {
			return a > b
		}
		return out[i][0].(string) < out[j][0].(string)
	})
	return out
}

// spillReference computes the engine-spill plan: inner join events with users
// on user, group by (user, page, country) with count and sum(amount) — nulls
// skipped, an all-null group sums to 0 — ordered by sum_amount descending
// then user. Ties beyond the two sort keys are left in map order; checkOutput
// compares order on the sort keys only and content as a multiset.
func spillReference(events []eventRow, users []userRow) [][]any {
	countryOf := map[string]string{}
	for _, u := range users {
		countryOf[u.user] = u.country
	}
	type key struct{ user, page, country string }
	type acc struct {
		count int64
		sum   float64
	}
	groups := map[key]*acc{}
	for _, e := range events {
		country, ok := countryOf[e.user]
		if !ok {
			continue
		}
		k := key{e.user, e.page, country}
		g := groups[k]
		if g == nil {
			g = &acc{}
			groups[k] = g
		}
		g.count++
		if e.hasAmount {
			g.sum += e.amount
		}
	}
	out := make([][]any, 0, len(groups))
	for k, g := range groups {
		out = append(out, []any{k.user, k.page, k.country, g.count, g.sum})
	}
	sort.Slice(out, func(i, j int) bool {
		if a, b := out[i][4].(float64), out[j][4].(float64); a != b {
			return a > b
		}
		return out[i][0].(string) < out[j][0].(string)
	})
	return out
}

// sortKey names one ORDER BY column of an output.
type sortKey struct {
	col  int
	desc bool
}

// canonical renders every row as one string (floats in their shortest exact
// form, so string equality is bit equality) and sorts the strings: the
// multiset form two outputs are compared in.
func canonical[R ~[]V, V any](rows []R) []string {
	out := make([]string, len(rows))
	var b strings.Builder
	for i, r := range rows {
		b.Reset()
		for _, v := range r {
			switch x := any(v).(type) {
			case nil:
				b.WriteString("\x00")
			case int64:
				b.WriteString(strconv.FormatInt(x, 10))
			case float64:
				b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
			case string:
				b.WriteString(strconv.Quote(x))
			default:
				fmt.Fprintf(&b, "%T:%v", v, v)
			}
			b.WriteByte('|')
		}
		out[i] = b.String()
	}
	sort.Strings(out)
	return out
}

func compareCells(a, b any) int {
	switch x := a.(type) {
	case int64:
		return cmp.Compare(x, b.(int64))
	case float64:
		return cmp.Compare(x, b.(float64))
	case string:
		return cmp.Compare(x, b.(string))
	}
	return 0
}

// checkOutput verifies got against the canonical reference want: the same
// multiset of rows, and got ordered on keys.
func checkOutput[R ~[]V, V any](got []R, want []string, keys []sortKey) error {
	if len(got) != len(want) {
		return fmt.Errorf("output has %d rows, reference has %d", len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		for _, k := range keys {
			c := compareCells(got[i-1][k.col], got[i][k.col])
			if k.desc {
				c = -c
			}
			if c > 0 {
				return fmt.Errorf("output rows %d and %d are out of order on column %d: %v then %v",
					i-1, i, k.col, got[i-1], got[i])
			}
			if c < 0 {
				break
			}
		}
	}
	for i, g := range canonical(got) {
		if g != want[i] {
			return fmt.Errorf("output differs from reference at canonical row %d: got %s, want %s", i, g, want[i])
		}
	}
	return nil
}
