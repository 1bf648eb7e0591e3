package analytics

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// Itemset is a set of items with its support (fraction of transactions that
// contain every item of the set).
type Itemset struct {
	Items   []string
	Support float64
}

// Key returns a canonical representation of the itemset (sorted, joined).
func (s Itemset) Key() string {
	items := append([]string(nil), s.Items...)
	sort.Strings(items)
	return strings.Join(items, ",")
}

// Rule is an association rule antecedent → consequent.
type Rule struct {
	Antecedent []string
	Consequent []string
	Support    float64
	Confidence float64
	Lift       float64
}

// String renders the rule compactly.
func (r Rule) String() string {
	return fmt.Sprintf("%s => %s (sup=%.3f conf=%.3f lift=%.2f)",
		strings.Join(r.Antecedent, ","), strings.Join(r.Consequent, ","), r.Support, r.Confidence, r.Lift)
}

// Apriori mines frequent itemsets and association rules from transactions
// (each transaction is the list of items it contains).
type Apriori struct {
	// MinSupport is the minimum fraction of transactions an itemset must
	// appear in (default 0.05).
	MinSupport float64
	// MinConfidence is the minimum confidence for generated rules (default 0.5).
	MinConfidence float64
	// MaxItemsetSize bounds the size of mined itemsets (default 3).
	MaxItemsetSize int
}

func (a *Apriori) defaults() {
	if a.MinSupport <= 0 {
		a.MinSupport = 0.05
	}
	if a.MinConfidence <= 0 {
		a.MinConfidence = 0.5
	}
	if a.MaxItemsetSize <= 0 {
		a.MaxItemsetSize = 3
	}
}

// Baskets is a list of transactions over interned items, in compressed
// sparse row form: transaction t holds the item ids Items[Start[t]:Start[t+1]],
// and id i names the item Names[i]. Start begins at 0 and never decreases,
// every id indexes Names, and Names are distinct and non-empty.
type Baskets struct {
	Names []string
	Start []int
	Items []int32
}

// Len returns the number of transactions.
func (b Baskets) Len() int { return max(len(b.Start)-1, 0) }

// MineBaskets returns frequent itemsets (sorted by descending support) and
// rules (sorted by descending confidence, then lift).
//
// Support is counted on a vertical layout (Apriori's level-wise search over
// Eclat-style transaction sets): every frequent item gets a dense id, in
// name order, and a bitset with one bit per transaction. A level-k candidate
// is the prefix join of two sorted (k-1)-sets; it is pruned when one of its
// (k-1)-subsets is infrequent, and otherwise its support is the popcount of
// its prefix's bitset ANDed with its last item's bitset.
func (a *Apriori) MineBaskets(b Baskets) ([]Itemset, []Rule, error) {
	if b.Len() == 0 {
		return nil, nil, ErrNoData
	}
	a.defaults()
	v := &vertical{n: float64(b.Len()), minSupport: a.MinSupport, counts: map[string]int{}}
	v.names, v.items = v.frequentItems(b)

	// Level 1: frequent single items, whose bitsets seed the next level.
	var sets []frequentSet
	for id, set := range v.items {
		s := frequentSet{ids: []int32{int32(id)}, count: popcount(set)}
		v.counts[string(v.keyOf(s.ids, -1))] = s.count
		sets = append(sets, s)
	}
	level, levelBits := sets, v.items
	for size := 2; size <= a.MaxItemsetSize && len(level) > 1; size++ {
		level, levelBits = v.nextLevel(level, levelBits)
		sets = append(sets, level...)
	}

	var frequent []Itemset
	var rules []Rule
	for _, s := range sets {
		sup := float64(s.count) / v.n
		frequent = append(frequent, Itemset{Items: v.itemNames(s.ids, -1), Support: sup})
		// Every subset of a frequent set is frequent and already counted.
		full := 1<<len(s.ids) - 1
		for mask := 1; mask < full; mask++ {
			conf := sup / v.support(s.ids, mask)
			if conf < a.MinConfidence {
				continue
			}
			rules = append(rules, Rule{
				Antecedent: v.itemNames(s.ids, mask),
				Consequent: v.itemNames(s.ids, full&^mask),
				Support:    sup,
				Confidence: conf,
				Lift:       conf / v.support(s.ids, full&^mask),
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

// frequentSet is a frequent itemset as ascending item ids, with the number of
// transactions that contain every one of its items.
type frequentSet struct {
	ids   []int32
	count int
}

// vertical is the state of one MineBaskets call.
type vertical struct {
	n          float64
	minSupport float64
	names      []string       // item name per id, ascending
	items      [][]uint64     // transaction bitset per item id
	counts     map[string]int // keyOf(ids) of every frequent itemset → count
	key        []byte         // scratch for keyOf
	cand       []int32        // scratch for nextLevel
}

func (v *vertical) isFrequent(count int) bool {
	return float64(count)/v.n >= v.minSupport
}

// frequentItems renumbers the frequent items of b to dense ids in name order
// and returns each new id's name and transaction bitset. An item repeated
// within one transaction counts once.
func (v *vertical) frequentItems(b Baskets) ([]string, [][]uint64) {
	counts := make([]int, len(b.Names))
	lastTx := make([]int, len(b.Names)) // 1 + the last transaction counted
	for t := 0; t < b.Len(); t++ {
		for _, id := range b.Items[b.Start[t]:b.Start[t+1]] {
			if lastTx[id] != t+1 {
				lastTx[id] = t + 1
				counts[id]++
			}
		}
	}
	var kept []int32
	for id, count := range counts {
		if v.isFrequent(count) {
			kept = append(kept, int32(id))
		}
	}
	slices.SortFunc(kept, func(x, y int32) int { return strings.Compare(b.Names[x], b.Names[y]) })
	names := make([]string, len(kept))
	newID := make([]int, len(b.Names)) // new id + 1, 0 when infrequent
	for k, id := range kept {
		names[k] = b.Names[id]
		newID[id] = k + 1
	}
	words := (b.Len() + 63) / 64
	slab := make([]uint64, len(kept)*words)
	items := make([][]uint64, len(kept))
	for k := range items {
		items[k] = slab[k*words : (k+1)*words : (k+1)*words]
	}
	for t := 0; t < b.Len(); t++ {
		for _, id := range b.Items[b.Start[t]:b.Start[t+1]] {
			if k := newID[id]; k > 0 {
				items[k-1][t/64] |= 1 << (t % 64)
			}
		}
	}
	return names, items
}

// nextLevel joins level, the frequent (k-1)-sets in ascending lexicographic
// id order with their bitsets, into the frequent k-sets, again in that order
// and with their bitsets. Sets sharing their first k-2 ids are adjacent, so
// each set joins only the run of sets after it with the same prefix.
func (v *vertical) nextLevel(level []frequentSet, levelBits [][]uint64) ([]frequentSet, [][]uint64) {
	var next []frequentSet
	var nextBits [][]uint64
	k := len(level[0].ids) + 1
	words := len(v.items[0])
	scratch := make([]uint64, words)
	for i, prefix := range level {
		for j := i + 1; j < len(level) && slices.Equal(prefix.ids[:k-2], level[j].ids[:k-2]); j++ {
			last := level[j].ids[k-2]
			v.cand = append(append(v.cand[:0], prefix.ids...), last)
			if !v.subsetsFrequent(v.cand) {
				continue
			}
			count := andPopcount(scratch, levelBits[i], v.items[last])
			if !v.isFrequent(count) {
				continue
			}
			s := frequentSet{ids: append([]int32(nil), v.cand...), count: count}
			v.counts[string(v.keyOf(s.ids, -1))] = count
			next = append(next, s)
			nextBits = append(nextBits, scratch)
			scratch = make([]uint64, words)
		}
	}
	return next, nextBits
}

// subsetsFrequent reports whether every (k-1)-subset of the k-set cand is
// frequent. The two subsets that drop one of the last two ids are the sets
// cand was joined from, so only the others are looked up.
func (v *vertical) subsetsFrequent(cand []int32) bool {
	full := 1<<len(cand) - 1
	for drop := 0; drop < len(cand)-2; drop++ {
		if _, ok := v.counts[string(v.keyOf(cand, full&^(1<<drop)))]; !ok {
			return false
		}
	}
	return true
}

// support is the support of the subset of ids selected by mask, which must
// be frequent.
func (v *vertical) support(ids []int32, mask int) float64 {
	return float64(v.counts[string(v.keyOf(ids, mask))]) / v.n
}

// keyOf encodes the ids selected by mask (all of them when mask is -1) as a
// map key in v.key, which the next call overwrites.
func (v *vertical) keyOf(ids []int32, mask int) []byte {
	v.key = v.key[:0]
	for i, id := range ids {
		if mask&(1<<i) != 0 {
			v.key = binary.LittleEndian.AppendUint32(v.key, uint32(id))
		}
	}
	return v.key
}

// itemNames returns the names of the ids selected by mask (all of them when
// mask is -1), in id order.
func (v *vertical) itemNames(ids []int32, mask int) []string {
	var out []string
	for i, id := range ids {
		if mask&(1<<i) != 0 {
			out = append(out, v.names[id])
		}
	}
	return out
}

func popcount(set []uint64) int {
	count := 0
	for _, w := range set {
		count += bits.OnesCount64(w)
	}
	return count
}

// andPopcount stores a AND b in dst and returns its popcount.
func andPopcount(dst, a, b []uint64) int {
	count := 0
	for i := range dst {
		dst[i] = a[i] & b[i]
		count += bits.OnesCount64(dst[i])
	}
	return count
}
