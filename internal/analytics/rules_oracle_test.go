package analytics

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// mineNaive is the textbook horizontal Apriori that Mine must reproduce bit
// for bit: every candidate scans every transaction and probes a per-
// transaction item set. It keys itemsets by Itemset.Key, so item names given
// to it must not contain ','.
func mineNaive(a *Apriori, transactions [][]string) ([]Itemset, []Rule, error) {
	if len(transactions) == 0 {
		return nil, nil, ErrNoData
	}
	a.defaults()
	n := float64(len(transactions))

	// Canonicalise transactions to sets.
	txSets := make([]map[string]bool, len(transactions))
	for i, tx := range transactions {
		set := make(map[string]bool, len(tx))
		for _, item := range tx {
			if item != "" {
				set[item] = true
			}
		}
		txSets[i] = set
	}

	supportOf := func(items []string) float64 {
		count := 0
		for _, set := range txSets {
			all := true
			for _, it := range items {
				if !set[it] {
					all = false
					break
				}
			}
			if all {
				count++
			}
		}
		return float64(count) / n
	}

	// Level 1: frequent single items.
	itemCounts := map[string]int{}
	for _, set := range txSets {
		for item := range set {
			itemCounts[item]++
		}
	}
	var frequent []Itemset
	current := make([][]string, 0)
	for item, count := range itemCounts {
		sup := float64(count) / n
		if sup >= a.MinSupport {
			frequent = append(frequent, Itemset{Items: []string{item}, Support: sup})
			current = append(current, []string{item})
		}
	}

	// Levels 2..MaxItemsetSize: candidate generation by joining sets that
	// share a prefix, then support counting.
	supportIndex := map[string]float64{}
	for _, f := range frequent {
		supportIndex[f.Key()] = f.Support
	}
	for size := 2; size <= a.MaxItemsetSize && len(current) > 1; size++ {
		candidates := generateCandidates(current, size)
		var next [][]string
		for _, cand := range candidates {
			sup := supportOf(cand)
			if sup >= a.MinSupport {
				is := Itemset{Items: cand, Support: sup}
				frequent = append(frequent, is)
				supportIndex[is.Key()] = sup
				next = append(next, cand)
			}
		}
		current = next
	}

	// Rule generation from itemsets of size >= 2.
	var rules []Rule
	for _, is := range frequent {
		if len(is.Items) < 2 {
			continue
		}
		for _, split := range nonEmptySplits(is.Items) {
			antecedentSupport := supportIndex[Itemset{Items: split.antecedent}.Key()]
			consequentSupport := supportIndex[Itemset{Items: split.consequent}.Key()]
			if antecedentSupport == 0 {
				antecedentSupport = supportOf(split.antecedent)
			}
			if consequentSupport == 0 {
				consequentSupport = supportOf(split.consequent)
			}
			if antecedentSupport == 0 || consequentSupport == 0 {
				continue
			}
			conf := is.Support / antecedentSupport
			if conf < a.MinConfidence {
				continue
			}
			rules = append(rules, Rule{
				Antecedent: split.antecedent,
				Consequent: split.consequent,
				Support:    is.Support,
				Confidence: conf,
				Lift:       conf / consequentSupport,
			})
		}
	}

	sort.Slice(frequent, func(i, j int) bool {
		if frequent[i].Support != frequent[j].Support {
			return frequent[i].Support > frequent[j].Support
		}
		return frequent[i].Key() < frequent[j].Key()
	})
	sort.Slice(rules, func(i, j int) bool {
		if rules[i].Confidence != rules[j].Confidence {
			return rules[i].Confidence > rules[j].Confidence
		}
		if rules[i].Lift != rules[j].Lift {
			return rules[i].Lift > rules[j].Lift
		}
		return rules[i].String() < rules[j].String()
	})
	return frequent, rules, nil
}

// generateCandidates joins frequent (size-1)-itemsets into size-itemsets,
// deduplicating by canonical key.
func generateCandidates(current [][]string, size int) [][]string {
	seen := map[string][]string{}
	for i := 0; i < len(current); i++ {
		for j := i + 1; j < len(current); j++ {
			union := map[string]bool{}
			for _, it := range current[i] {
				union[it] = true
			}
			for _, it := range current[j] {
				union[it] = true
			}
			if len(union) != size {
				continue
			}
			items := make([]string, 0, size)
			for it := range union {
				items = append(items, it)
			}
			sort.Strings(items)
			seen[strings.Join(items, ",")] = items
		}
	}
	out := make([][]string, 0, len(seen))
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, seen[k])
	}
	return out
}

type split struct {
	antecedent []string
	consequent []string
}

// nonEmptySplits enumerates all ways to split items into a non-empty
// antecedent and non-empty consequent.
func nonEmptySplits(items []string) []split {
	n := len(items)
	var out []split
	for mask := 1; mask < (1<<n)-1; mask++ {
		var a, c []string
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				a = append(a, items[i])
			} else {
				c = append(c, items[i])
			}
		}
		out = append(out, split{antecedent: a, consequent: c})
	}
	return out
}

// assertMatchesOracle mines transactions with both Mine (MineBaskets over
// interned ids) and mineNaive under the same thresholds and fails unless the
// results are deeply equal: the same itemsets and rules in the same order,
// every float equal, nil where the oracle returns nil.
func assertMatchesOracle(t *testing.T, transactions [][]string, a Apriori) {
	t.Helper()
	want := a
	wantSets, wantRules, wantErr := mineNaive(&want, transactions)
	got := a
	gotSets, gotRules, gotErr := got.Mine(transactions)
	if gotErr != wantErr {
		t.Fatalf("%+v: err = %v, oracle %v", a, gotErr, wantErr)
	}
	if !reflect.DeepEqual(gotSets, wantSets) {
		t.Fatalf("%+v on %v:\nitemsets %#v\noracle   %#v", a, transactions, gotSets, wantSets)
	}
	if !reflect.DeepEqual(gotRules, wantRules) {
		t.Fatalf("%+v on %v:\nrules  %#v\noracle %#v", a, transactions, gotRules, wantRules)
	}
	if got != want {
		t.Fatalf("defaults applied differently: %+v, oracle %+v", got, want)
	}
}

// randomBaskets draws a skewed basket workload from seed: 1–25 item names
// (including the empty string, which is not an item) with a power-law
// popularity, 1–300 transactions of 0–8 draws each (so items repeat within a
// transaction), and thresholds across the ranges the runner and callers use.
func randomBaskets(seed int64) ([][]string, Apriori) {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, 1+rng.Intn(25))
	for i := range names {
		names[i] = fmt.Sprintf("item%02d", i)
	}
	if rng.Intn(4) == 0 {
		names[rng.Intn(len(names))] = ""
	}
	transactions := make([][]string, 1+rng.Intn(300))
	for t := range transactions {
		tx := make([]string, rng.Intn(9))
		for i := range tx {
			// Squaring a uniform draw skews popularity toward the first names.
			u := rng.Float64()
			tx[i] = names[int(u*u*float64(len(names)))]
		}
		transactions[t] = tx
	}
	return transactions, Apriori{
		MinSupport:     0.01 + 0.29*rng.Float64(),
		MinConfidence:  0.1 + 0.7*rng.Float64(),
		MaxItemsetSize: 1 + rng.Intn(5),
	}
}

func TestAprioriMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		transactions, a := randomBaskets(seed)
		assertMatchesOracle(t, transactions, a)
	}
	// Default thresholds and the hand-written basket fixture.
	assertMatchesOracle(t, basketTransactions(), Apriori{})
	assertMatchesOracle(t, basketTransactions(), Apriori{MinSupport: 0.1, MinConfidence: 0.1, MaxItemsetSize: 4})
	assertMatchesOracle(t, nil, Apriori{})
}

// fuzzItemNames is the alphabet FuzzAprioriEquivalence draws item names from:
// comma-free (the oracle keys by Itemset.Key), with the empty string, which
// is not an item.
var fuzzItemNames = []string{"", "a", "b", "c", "d", "e", "f", "g", "h", "ab", "bread", "milk", "x y", "Z"}

// FuzzAprioriEquivalence decodes fuzz bytes into thresholds and transactions
// and holds Mine to the horizontal oracle. The first three bytes set
// MinSupport, MinConfidence and MaxItemsetSize; each later byte adds one item
// (low nibble) to the current transaction, and a byte with the high bit set
// closes it first.
func FuzzAprioriEquivalence(f *testing.F) {
	f.Add([]byte{10, 100, 3, 1, 2, 3, 0x80, 1, 2, 0x80, 2, 3, 0x81, 0x82})
	f.Add([]byte{0, 0, 0, 0x80, 0x80, 0x80})
	f.Add([]byte{255, 255, 255, 1, 1, 1, 0x81})
	f.Add([]byte{3, 40, 5, 1, 2, 3, 4, 5, 0x80, 1, 2, 3, 4, 0x80, 1, 2, 3, 0x80, 1, 2, 0x80, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		a := Apriori{
			MinSupport:     float64(data[0]) / 255 * 0.5,
			MinConfidence:  float64(data[1]) / 255,
			MaxItemsetSize: int(data[2] % 6),
		}
		var transactions [][]string
		var tx []string
		for i, b := range data[3:] {
			if b&0x80 != 0 && i > 0 {
				transactions = append(transactions, tx)
				tx = nil
			}
			tx = append(tx, fuzzItemNames[int(b&0x0f)%len(fuzzItemNames)])
		}
		if len(data) > 3 {
			transactions = append(transactions, tx)
		}
		assertMatchesOracle(t, transactions, a)
	})
}
