package core

import (
	"math"
	"slices"

	"repro/internal/dataset"
)

// Value orders: for each local attribute t of a relation, its row IDs
// sorted by (attribute t's value, row ID). The rows whose value is ≤ some
// v form a prefix of the order, so one binary search per attribute finds
// every row that wins or ties a candidate there — the input of the
// kernel's target-set bitsets (tauBits). Stored as int32 row IDs:
// Local·n·4 bytes per relation side.

// valEntry is one row of an ordering under construction: its row ID and
// its sort value as an order-preserving integer key (valKey).
type valEntry struct {
	key uint64
	id  int32
}

// valKey maps a finite float64 to a uint64 with the same order: negative
// values have every bit flipped, non-negative ones only the sign bit.
// -0 is keyed as +0, so the two tie exactly as they do under < and ≤ — the
// comparisons localPrefix, the merges and the binary searches use.
func valKey(v float64) uint64 {
	if v == 0 {
		v = 0
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// radixSort sorts es by key with a stable LSD radix sort over the key's
// eight bytes — entries with equal keys keep their input order — and
// returns the sorted slice, which is es or tmp (scratch of len(es)). A
// byte position every key shares costs no pass.
func radixSort(es, tmp []valEntry) []valEntry {
	var count [8][256]int32
	for _, e := range es {
		k := e.key
		count[0][byte(k)]++
		count[1][byte(k>>8)]++
		count[2][byte(k>>16)]++
		count[3][byte(k>>24)]++
		count[4][byte(k>>32)]++
		count[5][byte(k>>40)]++
		count[6][byte(k>>48)]++
		count[7][byte(k>>56)]++
	}
	for p := range count {
		c := &count[p]
		shift := uint(8 * p)
		if len(es) == 0 || int(c[byte(es[0].key>>shift)]) == len(es) {
			continue
		}
		var sum int32
		for b, n := range c {
			c[b] = sum
			sum += n
		}
		for _, e := range es {
			b := byte(e.key >> shift)
			tmp[c[b]] = e
			c[b]++
		}
		es, tmp = tmp, es
	}
	return es
}

// sortedIDs writes into dst the rows ids(0..len(dst)-1), given in
// ascending row-ID order, sorted by (attribute t's value, row ID).
// entries and tmp are scratch of len(dst).
func sortedIDs(dst []int32, entries, tmp []valEntry, at []float64, d, t int, ids func(k int) int) {
	for k := range entries {
		id := ids(k)
		entries[k] = valEntry{key: valKey(at[id*d+t]), id: int32(id)}
	}
	for k, e := range radixSort(entries, tmp) {
		dst[k] = e.id
	}
}

// buildOrders returns r's value orders, one per local attribute.
func buildOrders(r *dataset.Relation) [][]int32 {
	n, at, d := r.Len(), r.FlatAttrs(), r.D()
	ord := make([][]int32, r.Local)
	entries, tmp := make([]valEntry, n), make([]valEntry, n)
	for t := range ord {
		ord[t] = make([]int32, n)
		sortedIDs(ord[t], entries, tmp, at, d, t, func(k int) int { return k })
	}
	return ord
}

// absorbOrders merges rows appended to r into its value orders in place.
// ids must be the appended tail (ascending, above every row already in the
// orders), so on equal values every existing row sorts first and the merge
// reproduces exactly what buildOrders computes over the grown relation.
func absorbOrders(ord [][]int32, r *dataset.Relation, ids []int32) {
	if len(ids) == 0 {
		return
	}
	at, d := r.FlatAttrs(), r.D()
	entries, tmp := make([]valEntry, len(ids)), make([]valEntry, len(ids))
	tail := make([]int32, len(ids))
	for t, o := range ord {
		sortedIDs(tail, entries, tmp, at, d, t, func(k int) int { return int(ids[k]) })
		n := len(o)
		o = slices.Grow(o, len(tail))[:n+len(tail)]
		gallopMerge(o, n, tail, at, d, t)
		ord[t] = o
	}
}

// gallopMerge merges the sorted tail into o[:n], an order of attribute t
// with room for the tail behind it, from the back: each tail row, largest
// first, lands above every remaining existing row whose value is ≤ its own
// (existing rows win ties — their IDs are smaller), and the existing rows
// above it shift up as one block. Each existing row moves once, so a merge
// costs O(n + m·log(n/m)) for a tail of m rows: a small batch costs a few
// searches and block moves, not a pass over every row.
func gallopMerge(o []int32, n int, tail []int32, at []float64, d, t int) {
	hi := n
	for j := len(tail) - 1; j >= 0; j-- {
		p := upperBound(o[:hi], at, d, t, at[int(tail[j])*d+t])
		copy(o[p+j+1:hi+j+1], o[p:hi])
		o[p+j] = tail[j]
		hi = p
	}
}

// upperBound returns the number of rows of the value order o (attribute t)
// whose value is ≤ v, galloping down from the top: the cost grows with the
// log of how many rows exceed v.
func upperBound(o []int32, at []float64, d, t int, v float64) int {
	b, step := len(o), 1 // every row in o[b:] exceeds v
	a := b - 1
	for a >= 0 && at[int(o[a])*d+t] > v {
		b = a
		a = b - step
		step *= 2
	}
	lo, hi := max(a+1, 0), b
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if at[int(o[mid])*d+t] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// renumbering maps each of n pre-delete row IDs to its post-delete ID, or
// -1 for the deleted ids (strictly ascending, as Relation.DeleteBatch
// takes them).
func renumbering(n int, ids []int) []int32 {
	to := make([]int32, n)
	next := 0
	for i := range to {
		if next < len(ids) && ids[next] == i {
			to[i] = -1
			next++
			continue
		}
		to[i] = int32(i - next)
	}
	return to
}

// retractOrders filters deleted rows out of value orders in place and
// renumbers the survivors (to from renumbering). Deleting rows changes
// neither the survivors' values nor their relative ID order, so the result
// is exactly what buildOrders computes over the compacted relation.
func retractOrders(ord [][]int32, to []int32) {
	for t, o := range ord {
		ord[t] = retractIDs(o, to)
	}
}

// retractIDs filters deleted rows out of ids in place and renumbers the
// survivors (to from renumbering), keeping their order.
func retractIDs(ids, to []int32) []int32 {
	w := 0
	for _, x := range ids {
		if y := to[x]; y >= 0 {
			ids[w] = y
			w++
		}
	}
	return ids[:w]
}
