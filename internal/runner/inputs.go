package runner

// inputs.go reads the prepared batches into the typed inputs of the
// sessionization and association analytics: flat slices of user ids, times
// and conversion flags, and item-id baskets in compressed sparse row form.

import (
	"math"
	"slices"

	"repro/internal/analytics"
	"repro/internal/storage"
)

// zeroTimeMs is the zero time.Time in Unix milliseconds: the time a session
// event with a null or unreadable time is placed at.
const zeroTimeMs = -62135596800000

// intColumn reads column col of the batches (n rows in all) with IntAt's
// conversions into one slice; a cell IntAt cannot read, such as a null or a
// cell of an absent column (col < 0), reads as missing. An int or time
// column is read straight from its vector.
func intColumn(batches []*storage.ColumnBatch, n, col int, missing int64) []int64 {
	out := make([]int64, 0, n)
	for _, b := range batches {
		if c := columnOf(b, col); c != nil && (c.Type() == storage.TypeInt || c.Type() == storage.TypeTime) {
			for i := 0; i < b.Len(); i++ {
				v := c.Int(i)
				if c.Null(i) {
					v = missing
				}
				out = append(out, v)
			}
			continue
		}
		for i := 0; i < b.Len(); i++ {
			v, ok := b.IntAt(i, col)
			if !ok {
				v = missing
			}
			out = append(out, v)
		}
	}
	return out
}

// boolColumn reads column col of the batches (n rows in all) with BoolAt's
// conversions into one slice; a cell BoolAt cannot read, such as a null or a
// cell of an absent column (col < 0), reads as false. A bool column is read
// straight from its vector.
func boolColumn(batches []*storage.ColumnBatch, n, col int) []bool {
	out := make([]bool, 0, n)
	for _, b := range batches {
		if c := columnOf(b, col); c != nil && c.Type() == storage.TypeBool {
			for i := 0; i < b.Len(); i++ {
				out = append(out, c.Bool(i) && !c.Null(i))
			}
			continue
		}
		for i := 0; i < b.Len(); i++ {
			v, _ := b.BoolAt(i, col)
			out = append(out, v)
		}
	}
	return out
}

// basketsOf groups the prepared rows into association baskets: one basket
// per distinct value of column tx, in first-seen row order, holding the
// values of column item in row order. An item that renders as "" (a null
// or the empty string) is left out, but its row still opens its basket.
//
// Baskets are keyed as StringAt renders the transaction column, without
// rendering it: a string column by value, a null reading as ""; any other
// column by its 64-bit value, a null forming a basket of its own, -0 and +0
// two baskets and every NaN one. Items are keyed the same way and each is
// rendered once, when first seen.
func basketsOf(batches []*storage.ColumnBatch, tx, item int) analytics.Baskets {
	n := 0
	for _, b := range batches {
		n += b.Len()
	}
	// A basket's lines are usually adjacent, so the transaction column's
	// runs of equal cells bound its distinct values tightly: its map is
	// sized for them and never grows.
	txKeys, itemKeys := cellKeys{hint: runs(batches, tx)}, cellKeys{}
	txOf, itemOf := make([]int32, 0, n), make([]int32, 0, n)
	var rendered []string // item name per itemKeys id
	for _, b := range batches {
		txOf = txKeys.appendIDs(txOf, b, tx)
		from := len(itemOf)
		itemOf = itemKeys.appendIDs(itemOf, b, item)
		for i, id := range itemOf[from:] {
			if int(id) == len(rendered) {
				rendered = append(rendered, b.StringAt(i, item))
			}
		}
	}
	var out analytics.Baskets
	itemID := make([]int32, len(rendered)) // Names index, -1 for ""
	for k, name := range rendered {
		itemID[k] = -1
		if name != "" {
			itemID[k] = int32(len(out.Names))
			out.Names = append(out.Names, name)
		}
	}
	out.Start = make([]int, txKeys.n+1)
	for r, t := range txOf {
		if itemID[itemOf[r]] >= 0 {
			out.Start[t+1]++
		}
	}
	for t := 1; t < len(out.Start); t++ {
		out.Start[t] += out.Start[t-1]
	}
	out.Items = make([]int32, out.Start[len(out.Start)-1])
	next := slices.Clone(out.Start[:txKeys.n])
	for r, t := range txOf {
		if id := itemID[itemOf[r]]; id >= 0 {
			out.Items[next[t]] = id
			next[t]++
		}
	}
	return out
}

// cellKeys numbers the distinct cells of one column, across batches, in
// first-seen row order. Two cells get one id exactly when StringAt renders
// them equal (see basketsOf). A cell equal to the previous row's takes that
// row's id without a map lookup.
type cellKeys struct {
	n     int32            // ids handed out
	strs  map[string]int32 // string cells; a null reads as ""
	words map[uint64]int32 // other cells, by their 64-bit value
	null  int32            // 1 + the id of a null non-string cell; 0 until one is seen
	hint  int              // capacity of a map made on first use
}

// runs counts the runs of adjacent rows whose cells of column col are equal,
// a run ending at each batch boundary: an upper bound on the column's
// distinct cells, and a tight one when equal cells are adjacent.
func runs(batches []*storage.ColumnBatch, col int) int {
	count := 0
	for _, b := range batches {
		count++
		if col < 0 {
			continue
		}
		c := b.Column(col)
		for i := 1; i < b.Len(); i++ {
			if !sameCell(c, i, i-1) {
				count++
			}
		}
	}
	return count
}

// sameCell reports whether rows i and j of column c are equal cells.
func sameCell(c *storage.Column, i, j int) bool {
	if c.Type() == storage.TypeString {
		return c.Null(i) == c.Null(j) && c.Str(i) == c.Str(j)
	}
	a, aok := wordOf(c, i)
	b, bok := wordOf(c, j)
	return a == b && aok == bok
}

// columnOf returns column col of b, or nil for an absent column (col < 0).
func columnOf(b *storage.ColumnBatch, col int) *storage.Column {
	if col < 0 {
		return nil
	}
	return b.Column(col)
}

// canonicalNaN is the one key of every NaN, which StringAt renders alike.
var canonicalNaN = math.Float64bits(math.NaN())

// appendIDs appends the id of each row's cell of column col of b to dst. An
// absent column (col < 0) reads as a null in every row.
func (k *cellKeys) appendIDs(dst []int32, b *storage.ColumnBatch, col int) []int32 {
	c := columnOf(b, col)
	if c != nil && c.Type() == storage.TypeString {
		last, id := "", int32(-1)
		for i := 0; i < b.Len(); i++ {
			s := ""
			if !c.Null(i) {
				s = c.Str(i)
			}
			if id < 0 || s != last {
				last, id = s, idOf(&k.strs, s, &k.n, k.hint)
			}
			dst = append(dst, id)
		}
		return dst
	}
	last, id := uint64(0), int32(-1)
	for i := 0; i < b.Len(); i++ {
		bits, ok := wordOf(c, i)
		if !ok {
			if k.null == 0 {
				k.n++
				k.null = k.n
			}
			dst = append(dst, k.null-1)
			continue
		}
		if id < 0 || bits != last {
			last, id = bits, idOf(&k.words, bits, &k.n, k.hint)
		}
		dst = append(dst, id)
	}
	return dst
}

// wordOf keys row i of a non-string column c by its value's 64 bits. ok is
// false where StringAt renders "": a null, an absent column (c == nil) or a
// column of unknown type.
func wordOf(c *storage.Column, i int) (bits uint64, ok bool) {
	if c == nil || c.Null(i) {
		return 0, false
	}
	switch c.Type() {
	case storage.TypeInt, storage.TypeTime:
		return uint64(c.Int(i)), true
	case storage.TypeFloat:
		if f := c.Float(i); f == f {
			return math.Float64bits(f), true
		}
		return canonicalNaN, true
	case storage.TypeBool:
		if c.Bool(i) {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// idOf returns key's id in *ids, numbering a new key from the counter n. A
// nil map is made with capacity hint.
func idOf[K comparable](ids *map[K]int32, key K, n *int32, hint int) int32 {
	if *ids == nil {
		*ids = make(map[K]int32, hint)
	}
	id, ok := (*ids)[key]
	if !ok {
		id = *n
		*n++
		(*ids)[key] = id
	}
	return id
}
