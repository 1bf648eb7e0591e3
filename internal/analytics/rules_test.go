package analytics

import (
	"errors"
	"strings"
	"testing"
)

// Mine mines string transactions through MineBaskets, the way the tests
// state their baskets: items are interned to ids in first-seen order, and the
// empty string is not an item.
func (a *Apriori) Mine(transactions [][]string) ([]Itemset, []Rule, error) {
	b := Baskets{Start: []int{0}}
	ids := map[string]int32{}
	for _, tx := range transactions {
		for _, item := range tx {
			if item == "" {
				continue
			}
			id, ok := ids[item]
			if !ok {
				id = int32(len(b.Names))
				ids[item] = id
				b.Names = append(b.Names, item)
			}
			b.Items = append(b.Items, id)
		}
		b.Start = append(b.Start, len(b.Items))
	}
	return a.MineBaskets(b)
}

func basketTransactions() [][]string {
	// pasta appears with tomatoes in 4 of 5 pasta baskets.
	return [][]string{
		{"pasta", "tomatoes", "olive_oil"},
		{"pasta", "tomatoes"},
		{"pasta", "tomatoes", "wine"},
		{"pasta", "tomatoes", "bread"},
		{"pasta", "milk"},
		{"milk", "bread"},
		{"milk", "bread", "coffee"},
		{"coffee", "croissant"},
		{"coffee", "croissant", "chocolate"},
		{"wine", "cheese"},
	}
}

func TestAprioriFindsFrequentItemsets(t *testing.T) {
	a := &Apriori{MinSupport: 0.3, MinConfidence: 0.6}
	itemsets, rules, err := a.Mine(basketTransactions())
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]float64{}
	for _, is := range itemsets {
		found[is.Key()] = is.Support
	}
	if found["pasta"] != 0.5 {
		t.Errorf("support(pasta) = %v, want 0.5", found["pasta"])
	}
	if found["pasta,tomatoes"] != 0.4 {
		t.Errorf("support(pasta,tomatoes) = %v, want 0.4", found["pasta,tomatoes"])
	}
	// The rule pasta => tomatoes must be produced with confidence 0.8.
	var pastaRule *Rule
	for i := range rules {
		r := rules[i]
		if len(r.Antecedent) == 1 && r.Antecedent[0] == "pasta" &&
			len(r.Consequent) == 1 && r.Consequent[0] == "tomatoes" {
			pastaRule = &rules[i]
		}
	}
	if pastaRule == nil {
		t.Fatalf("rule pasta=>tomatoes not found in %v", rules)
	}
	if pastaRule.Confidence < 0.79 || pastaRule.Confidence > 0.81 {
		t.Errorf("confidence = %v, want 0.8", pastaRule.Confidence)
	}
	if pastaRule.Lift <= 1 {
		t.Errorf("lift = %v, want > 1 (tomatoes base support is 0.4)", pastaRule.Lift)
	}
	if !strings.Contains(pastaRule.String(), "pasta => tomatoes") {
		t.Errorf("rule string = %q", pastaRule.String())
	}
}

func TestAprioriSupportThresholdPrunes(t *testing.T) {
	strict := &Apriori{MinSupport: 0.45, MinConfidence: 0.5}
	itemsets, _, err := strict.Mine(basketTransactions())
	if err != nil {
		t.Fatal(err)
	}
	for _, is := range itemsets {
		if is.Support < 0.45 {
			t.Errorf("itemset %v below the support threshold (%v)", is.Items, is.Support)
		}
		if len(is.Items) > 1 {
			t.Errorf("no 2-itemset reaches 0.45 support, got %v", is.Items)
		}
	}
}

func TestAprioriDefaultsAndErrors(t *testing.T) {
	if _, _, err := (&Apriori{}).Mine(nil); !errors.Is(err, ErrNoData) {
		t.Error("empty transactions must fail")
	}
	a := &Apriori{}
	if _, _, err := a.Mine([][]string{{"a", "b"}, {"a"}, {"", "b"}}); err != nil {
		t.Fatalf("defaults mining failed: %v", err)
	}
	if a.MinSupport <= 0 || a.MinConfidence <= 0 || a.MaxItemsetSize <= 0 {
		t.Error("defaults must be applied")
	}
}

func TestAprioriResultsAreSorted(t *testing.T) {
	a := &Apriori{MinSupport: 0.1, MinConfidence: 0.1}
	itemsets, rules, err := a.Mine(basketTransactions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(itemsets); i++ {
		if itemsets[i].Support > itemsets[i-1].Support {
			t.Error("itemsets must be sorted by descending support")
			break
		}
	}
	for i := 1; i < len(rules); i++ {
		if rules[i].Confidence > rules[i-1].Confidence {
			t.Error("rules must be sorted by descending confidence")
			break
		}
	}
}

func TestItemsetKeyCanonical(t *testing.T) {
	a := Itemset{Items: []string{"b", "a"}}
	b := Itemset{Items: []string{"a", "b"}}
	if a.Key() != b.Key() {
		t.Errorf("keys differ: %q vs %q", a.Key(), b.Key())
	}
}

func TestNonEmptySplits(t *testing.T) {
	splits := nonEmptySplits([]string{"a", "b", "c"})
	if len(splits) != 6 { // 2^3 - 2
		t.Errorf("splits = %d, want 6", len(splits))
	}
	for _, s := range splits {
		if len(s.antecedent) == 0 || len(s.consequent) == 0 {
			t.Error("splits must be non-empty on both sides")
		}
	}
}

// TestAprioriBitsetWordBoundaries mines transaction counts on both sides of
// the 64-bit word boundaries: an item in every transaction must have support
// exactly 1, so no bit past the last transaction is ever counted.
func TestAprioriBitsetWordBoundaries(t *testing.T) {
	for _, n := range []int{63, 64, 65, 128, 129} {
		transactions := make([][]string, n)
		for i := range transactions {
			transactions[i] = []string{"all"}
			if i%2 == 0 {
				transactions[i] = append(transactions[i], "even")
			}
			if i == n-1 {
				transactions[i] = append(transactions[i], "last")
			}
		}
		a := &Apriori{MinSupport: 0.001, MinConfidence: 0.1}
		itemsets, _, err := a.Mine(transactions)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]float64{
			"all":           1,
			"even":          float64((n+1)/2) / float64(n),
			"last":          1 / float64(n),
			"all,even":      float64((n+1)/2) / float64(n),
			"all,last":      1 / float64(n),
			"all,even,last": float64(n%2) / float64(n),
			"even,last":     float64(n%2) / float64(n),
		}
		for _, is := range itemsets {
			if is.Support != want[is.Key()] {
				t.Errorf("n=%d: support(%s) = %v, want %v", n, is.Key(), is.Support, want[is.Key()])
			}
		}
		assertMatchesOracle(t, transactions, Apriori{MinSupport: 0.001, MinConfidence: 0.1})
	}
}

func TestAprioriCountsRepeatedItemOnce(t *testing.T) {
	a := &Apriori{MinSupport: 0.1, MinConfidence: 0.1}
	itemsets, _, err := a.Mine([][]string{{"a", "a", "b"}, {"b"}, {"a", "a", "a"}, {"c"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, is := range itemsets {
		if is.Key() == "a" && is.Support != 0.5 {
			t.Errorf("support(a) = %v, want 0.5 (two of four transactions)", is.Support)
		}
	}
}

func TestAprioriSingletonsOnlyYieldNoRules(t *testing.T) {
	a := &Apriori{MinSupport: 0.1, MinConfidence: 0.1, MaxItemsetSize: 1}
	itemsets, rules, err := a.Mine(basketTransactions())
	if err != nil {
		t.Fatal(err)
	}
	if len(itemsets) == 0 {
		t.Fatal("expected frequent single items")
	}
	for _, is := range itemsets {
		if len(is.Items) != 1 {
			t.Errorf("itemset %v larger than MaxItemsetSize 1", is.Items)
		}
	}
	if rules != nil {
		t.Errorf("rules = %v, want nil", rules)
	}
}

func TestAprioriNothingFrequentIsNil(t *testing.T) {
	a := &Apriori{MinSupport: 0.9, MinConfidence: 0.1}
	itemsets, rules, err := a.Mine(basketTransactions())
	if err != nil {
		t.Fatal(err)
	}
	if itemsets != nil || rules != nil {
		t.Errorf("itemsets = %#v, rules = %#v, want nil and nil", itemsets, rules)
	}
}
