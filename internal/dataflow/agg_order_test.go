package dataflow

// agg_order_test.go pins the group-by's emission order and its float bits
// against a plain-Go model, on inputs where both are fragile: keys repeat
// across input partitions, sums are not exact in binary (so the order of
// additions shows in the bits), a second summed column holds -0, +0, NaN and
// nulls, and the string key arrives dictionary-coded from the spill codec.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/storage"
)

// orderModelState is the model's state for one group: the row count, and
// the count and sum of the non-null cells of v and of x.
type orderModelState struct {
	key  []storage.Value
	enc  string
	hash uint64
	rows int64
	v, x orderModelSum
}

// orderModelSum is the count and sum of one column's non-null cells.
type orderModelSum struct {
	n   int64
	sum float64
}

func (m *orderModelSum) fold(v storage.Value) {
	if f, ok := v.(float64); ok {
		m.n++
		m.sum += f
	}
}

func (m *orderModelSum) merge(o orderModelSum) {
	m.n += o.n
	m.sum += o.sum
}

// cells returns the column's sum and average (null over no cells).
func (m orderModelSum) cells() []storage.Value {
	if m.n == 0 {
		return []storage.Value{m.sum, nil}
	}
	return []storage.Value{m.sum, m.sum / float64(m.n)}
}

func (s *orderModelState) fold(v, x storage.Value) {
	s.rows++
	s.v.fold(v)
	s.x.fold(x)
}

func (s *orderModelState) merge(o *orderModelState) {
	s.rows += o.rows
	s.v.merge(o.v)
	s.x.merge(o.x)
}

func (s *orderModelState) row() storage.Row {
	row := append(storage.Row{}, s.key...)
	row = append(row, s.rows)
	row = append(row, s.v.cells()...)
	return append(row, s.x.cells()...)
}

// orderModelGroups groups rows by the encoded key in first-seen order.
type orderModelGroups struct {
	enc   *storage.KeyEncoder
	index map[string]*orderModelState
	order []*orderModelState
}

func newOrderModelGroups(enc *storage.KeyEncoder) *orderModelGroups {
	return &orderModelGroups{enc: enc, index: map[string]*orderModelState{}}
}

func (g *orderModelGroups) get(r storage.Row, keyValues []storage.Value) *orderModelState {
	key := string(g.enc.Key(r))
	s, ok := g.index[key]
	if !ok {
		s = &orderModelState{key: keyValues, enc: key, hash: g.enc.Hash(r)}
		g.index[key] = s
		g.order = append(g.order, s)
	}
	return s
}

// getPartial returns the group of a partial's key, adding an empty group
// with the partial's key values when the key is new.
func (g *orderModelGroups) getPartial(p *orderModelState) *orderModelState {
	s, ok := g.index[p.enc]
	if !ok {
		s = &orderModelState{key: p.key, enc: p.enc, hash: p.hash}
		g.index[p.enc] = s
		g.order = append(g.order, s)
	}
	return s
}

// orderModel is the expected group-by output. Output comes bucket by bucket
// (PartitionOfHash of the key hash); within a bucket, groups are ordered by
// the first input partition holding the key, then by first-seen order in that
// partition. Each input partition is folded separately and the partials add
// up in partition order, which fixes the float bits.
func orderModel(parts [][]storage.Row, schema *storage.Schema, keys []string, buckets int) []storage.Row {
	enc, err := storage.NewKeyEncoder(schema, keys...)
	if err != nil {
		panic(err)
	}
	vi, xi := schema.IndexOf("v"), schema.IndexOf("x")
	keyValues := func(r storage.Row) []storage.Value {
		out := make([]storage.Value, len(keys))
		for i, k := range keys {
			out[i] = r[schema.IndexOf(k)]
		}
		return out
	}
	out := make([]*orderModelGroups, buckets)
	for b := range out {
		out[b] = newOrderModelGroups(enc)
	}
	for _, p := range parts {
		local := newOrderModelGroups(enc)
		for _, r := range p {
			local.get(r, keyValues(r)).fold(r[vi], r[xi])
		}
		for _, s := range local.order {
			b := storage.PartitionOfHash(s.hash, buckets)
			out[b].getPartial(s).merge(s)
		}
	}
	var rows []storage.Row
	for _, g := range out {
		for _, s := range g.order {
			rows = append(rows, s.row())
		}
	}
	return rows
}

func TestGroupByEmissionOrder(t *testing.T) {
	schema := storage.MustSchema(
		storage.Field{Name: "k", Type: storage.TypeString},
		storage.Field{Name: "n", Type: storage.TypeInt, Nullable: true},
		storage.Field{Name: "v", Type: storage.TypeFloat, Nullable: true},
		storage.Field{Name: "x", Type: storage.TypeFloat, Nullable: true},
	)
	rng := rand.New(rand.NewSource(38))
	inexact := []storage.Value{0.1, 0.2, 0.3, 1e-3, 1e16, 3.3, -7.7, 2.0 / 3, nil}
	specials := []storage.Value{math.Copysign(0, -1), 0.0, math.NaN(), 1.5, -2.25, nil}
	nulls := []storage.Value{nil, int64(1), int64(2)}
	// Four input partitions whose keys repeat across partitions.
	parts := make([][]storage.Row, 4)
	batches := make([]*storage.ColumnBatch, len(parts))
	dictCoded := 0
	for p := range parts {
		for i := 0; i < 40+rng.Intn(20); i++ {
			parts[p] = append(parts[p], storage.Row{
				fmt.Sprintf("key-%02d", rng.Intn(12)),
				nulls[rng.Intn(len(nulls))],
				inexact[rng.Intn(len(inexact))],
				specials[rng.Intn(len(specials))],
			})
		}
		b, err := storage.BatchFromRows(schema, parts[p])
		if err != nil {
			t.Fatal(err)
		}
		// A round trip through the compressed spill codec dictionary-codes
		// the string key, as a restored spill frame would arrive.
		if b, err = storage.DecodeBatch(schema, storage.EncodeBatchOpts(nil, b, storage.CodecOptions{Compress: true})); err != nil {
			t.Fatal(err)
		}
		if b.Column(0).Dict() != nil {
			dictCoded++
		}
		batches[p] = b
	}
	if dictCoded == 0 {
		t.Fatal("no input partition arrived with a dictionary-coded key")
	}
	const buckets = 3
	aggs := []Aggregation{Count(), Sum("v"), Avg("v"), Sum("x"), Avg("x")}
	arms := []struct {
		name string
		opts []EngineOption
	}{
		{"combined", nil},
		{"combined/budget", []EngineOption{WithMemoryBudget(1)}},
	}
	for _, keys := range [][]string{{"k"}, {"k", "n"}} {
		plan := FromBatches("order", schema, batches).GroupBy(keys...).Agg(aggs...)
		for _, arm := range arms {
			t.Run(fmt.Sprintf("keys=%v/%s", keys, arm.name), func(t *testing.T) {
				c, err := cluster.New(cluster.Uniform(2, 2, 0))
				if err != nil {
					t.Fatal(err)
				}
				e, err := NewEngine(c, append([]EngineOption{WithShufflePartitions(buckets)}, arm.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.Collect(context.Background(), plan)
				if err != nil {
					t.Fatal(err)
				}
				want := orderModel(parts, schema, keys, buckets)
				if len(res.Rows) != len(want) {
					t.Fatalf("%d groups, model %d", len(res.Rows), len(want))
				}
				for i := range want {
					if !sameBits(res.Rows[i], want[i]) {
						t.Fatalf("group %d: got %v, model %v", i, res.Rows[i], want[i])
					}
				}
			})
		}
	}
}

// sameBits compares two rows cell by cell, floats by their bit patterns (so
// -0 differs from +0 and a NaN matches only the same NaN).
func sameBits(a, b storage.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		af, aok := a[i].(float64)
		bf, bok := b[i].(float64)
		if aok || bok {
			if !aok || !bok || math.Float64bits(af) != math.Float64bits(bf) {
				return false
			}
			continue
		}
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
