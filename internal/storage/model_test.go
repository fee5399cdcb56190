package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/oscar-overlay/oscar/internal/antientropy"
	"github.com/oscar-overlay/oscar/internal/keyspace"
)

// checkInvariants verifies the block layout: every block is non-empty and
// within blockCap (length and capacity), keys increase strictly within and
// across blocks, adjacent blocks together hold at least mergeBelow items,
// and the item count matches Len.
func checkInvariants(t *testing.T, s *Store) {
	t.Helper()
	n := 0
	var prev keyspace.Key
	for b, blk := range s.blocks {
		if len(blk) == 0 || len(blk) > blockCap || cap(blk) > blockCap {
			t.Fatalf("block %d: len %d cap %d, want 1..%d", b, len(blk), cap(blk), blockCap)
		}
		if b > 0 && len(s.blocks[b-1])+len(blk) < mergeBelow {
			t.Fatalf("blocks %d and %d hold %d+%d items, under the merge threshold %d",
				b-1, b, len(s.blocks[b-1]), len(blk), mergeBelow)
		}
		for i, it := range blk {
			if n > 0 && it.Key <= prev {
				t.Fatalf("block %d item %d: key %v not above previous key %v", b, i, it.Key, prev)
			}
			prev = it.Key
			n++
		}
	}
	if n != s.n || n != s.Len() {
		t.Fatalf("blocks hold %d items, count %d, Len %d", n, s.n, s.Len())
	}
}

// model is the reference the block store is checked against: a map per
// state plus the rules of each mutator.
type model struct {
	items map[keyspace.Key][]byte
	tombs map[keyspace.Key]int64
}

func newModel() *model {
	return &model{items: map[keyspace.Key][]byte{}, tombs: map[keyspace.Key]int64{}}
}

func (m *model) put(k keyspace.Key, v []byte) {
	m.items[k] = v
	delete(m.tombs, k)
}

func (m *model) tombstone(k keyspace.Key, at int64) {
	delete(m.items, k)
	if old, ok := m.tombs[k]; !ok || at > old {
		m.tombs[k] = at
	}
}

// sorted returns the reference items in key order.
func (m *model) sorted() []Item {
	out := make([]Item, 0, len(m.items))
	for k, v := range m.items {
		out = append(out, Item{Key: k, Value: v})
	}
	slices.SortFunc(out, func(a, b Item) int { return cmpKey(a.Key, b.Key) })
	return out
}

// sortedTombs returns the reference tombstones in key order.
func (m *model) sortedTombs() []Tombstone {
	out := make([]Tombstone, 0, len(m.tombs))
	for k, at := range m.tombs {
		out = append(out, Tombstone{Key: k, At: at})
	}
	slices.SortFunc(out, func(a, b Tombstone) int { return cmpKey(a.Key, b.Key) })
	return out
}

func cmpKey(a, b keyspace.Key) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// clockwise returns the items of sorted (key order) that lie in rg, in
// clockwise order from rg.Start.
func clockwise(sorted []Item, rg keyspace.Range) []Item {
	out := make([]Item, 0, len(sorted))
	for _, it := range sorted {
		if it.Key >= rg.Start && rg.Contains(it.Key) {
			out = append(out, it)
		}
	}
	for _, it := range sorted {
		if it.Key < rg.Start && rg.Contains(it.Key) {
			out = append(out, it)
		}
	}
	return out
}

// refPage applies the page bounds shared by ScanPage, ScanPageMerged and
// ExtractRangeLimit to a clockwise item list.
func refPage(all []Item, maxItems, maxBytes int) ([]Item, bool) {
	var out []Item
	bytes := 0
	for _, it := range all {
		if maxItems > 0 && len(out) >= maxItems {
			return out, true
		}
		if maxBytes > 0 && len(out) > 0 && bytes+len(it.Value) > maxBytes {
			return out, true
		}
		bytes += len(it.Value)
		out = append(out, it)
	}
	return out, false
}

func sameItems(a, b []Item) bool {
	return slices.EqualFunc(a, b, func(x, y Item) bool { return x.Key == y.Key && bytes.Equal(x.Value, y.Value) })
}

// inArc returns the reference items whose keys lie in rg, in clockwise
// order from rg.Start.
func (m *model) inArc(rg keyspace.Range) []Item {
	var out []Item
	for k, v := range m.items {
		if rg.Contains(k) {
			out = append(out, Item{Key: k, Value: v})
		}
	}
	slices.SortFunc(out, func(a, b Item) int {
		return cmpKey(keyspace.Key(rg.Start.Distance(a.Key)), keyspace.Key(rg.Start.Distance(b.Key)))
	})
	return out
}

// The operations of the model test, in the order of the weight tables.
const (
	opPut = iota
	opInsertBulk
	opExtractRange
	opExtractRangeLimit
	opExtractTombstones
	opGC
	opDrop
	opSetTombstone
	opDeleteAt
	opDelete
	numOps
)

// Operation weights of the two phases: growth fills the store to about
// twenty-five thousand items, shrink drains it through deletes and wide
// extractions.
var (
	growWeights   = [numOps]int{40, 15, 1, 1, 1, 1, 10, 12, 17, 2}
	shrinkWeights = [numOps]int{5, 1, 3, 5, 1, 1, 20, 20, 40, 4}
)

// TestStoreModel drives a seeded random mix of every mutator over a
// universe of forty thousand keys, alternating growth and shrink phases so
// the store swings between empty and tens of thousands of items — hundreds
// of block splits and merges — and checks the block store against a
// map-and-sort reference: contents, lookups, every scan flavour on plain,
// wrapping, full and block-aligned arcs, the maintained digest, and a
// replay of the sink's mutation stream.
func TestStoreModel(t *testing.T) {
	rnd := rand.New(rand.NewSource(13))
	universe := make([]keyspace.Key, 40000)
	for i := range universe {
		universe[i] = keyspace.Key(rnd.Uint64())
	}
	var s, fallback Store
	s.EnableDigest(antientropy.DefaultDepth)
	var log []Mutation
	s.SetSink(func(m Mutation) { log = append(log, m) })
	ref, fref := newModel(), newModel()

	seq := 0
	value := func() []byte {
		seq++
		return []byte(fmt.Sprintf("v%d%s", seq, bytes.Repeat([]byte{'x'}, rnd.Intn(40))))
	}
	key := func() keyspace.Key { return universe[rnd.Intn(len(universe))] }
	// arc draws an arc from 1/2^minShift to 1/2^(minShift+7) of the circle.
	arc := func(minShift int) keyspace.Range {
		start := key()
		return keyspace.Range{Start: start, End: start + keyspace.Key(rnd.Uint64()>>(minShift+rnd.Intn(8)))}
	}
	pick := func(w *[numOps]int) int {
		total := 0
		for _, x := range w {
			total += x
		}
		r := rnd.Intn(total)
		for op, x := range w {
			if r < x {
				return op
			}
			r -= x
		}
		panic("unreachable")
	}

	const phaseOps, phases = 8000, 12
	splits, merges, maxLen := 0, 0, 0
	for op := 0; op < phaseOps*phases; op++ {
		weights, arcShift := &growWeights, 6
		if (op/phaseOps)%2 == 1 {
			weights, arcShift = &shrinkWeights, 4
		}
		before := len(s.blocks)
		switch pick(weights) {
		case opPut:
			k, v := key(), value()
			_, had := ref.items[k]
			if replaced := s.Put(k, v); replaced != had {
				t.Fatalf("op %d: Put(%v) replaced=%v, reference %v", op, k, replaced, had)
			}
			ref.put(k, v)
			if rnd.Intn(5) == 0 {
				fk, fv := key(), value()
				fallback.Put(fk, fv)
				fref.put(fk, fv)
			}
		case opInsertBulk:
			batch := make([]Item, 0, 1+rnd.Intn(64))
			seen := map[keyspace.Key]bool{}
			for len(batch) < cap(batch) {
				if k := key(); !seen[k] {
					seen[k] = true
					batch = append(batch, Item{Key: k, Value: value()})
				}
			}
			s.InsertBulk(batch)
			for _, it := range batch {
				ref.put(it.Key, it.Value)
			}
		case opExtractRange:
			rg := arc(arcShift)
			got := s.ExtractRange(rg)
			want := ref.inArc(rg)
			slices.SortFunc(want, func(a, b Item) int { return cmpKey(a.Key, b.Key) })
			if !sameItems(got, want) {
				t.Fatalf("op %d: ExtractRange(%v) = %d items, want %d", op, rg, len(got), len(want))
			}
			for _, it := range want {
				delete(ref.items, it.Key)
			}
		case opExtractRangeLimit:
			rg := arc(arcShift)
			maxItems, maxBytes := rnd.Intn(3*blockCap), rnd.Intn(30000)
			got, more := s.ExtractRangeLimit(rg, maxItems, maxBytes)
			want, wantMore := refPage(ref.inArc(rg), maxItems, maxBytes)
			if !sameItems(got, want) || more != wantMore {
				t.Fatalf("op %d: ExtractRangeLimit(%v, %d, %d) = %d items more=%v, want %d more=%v",
					op, rg, maxItems, maxBytes, len(got), more, len(want), wantMore)
			}
			for _, it := range want {
				delete(ref.items, it.Key)
			}
		case opExtractTombstones:
			rg := arc(arcShift)
			got := s.ExtractTombstones(rg)
			var want []Tombstone
			for k, at := range ref.tombs {
				if rg.Contains(k) {
					want = append(want, Tombstone{Key: k, At: at})
					delete(ref.tombs, k)
				}
			}
			slices.SortFunc(want, func(a, b Tombstone) int { return cmpKey(a.Key, b.Key) })
			if !slices.Equal(got, want) {
				t.Fatalf("op %d: ExtractTombstones(%v) = %v, want %v", op, rg, got, want)
			}
		case opGC:
			cutoff := int64(rnd.Intn(1000))
			want := 0
			for k, at := range ref.tombs {
				if at < cutoff {
					delete(ref.tombs, k)
					want++
				}
			}
			if got := s.GCTombstones(cutoff); got != want {
				t.Fatalf("op %d: GCTombstones(%d) = %d, want %d", op, cutoff, got, want)
			}
		case opDrop:
			k := key()
			s.Drop(k)
			delete(ref.items, k)
			delete(ref.tombs, k)
		case opSetTombstone:
			k, at := key(), int64(rnd.Intn(2000))
			_, had := ref.items[k]
			if existed := s.SetTombstone(k, at); existed != had {
				t.Fatalf("op %d: SetTombstone(%v) existed=%v, reference %v", op, k, existed, had)
			}
			ref.tombstone(k, at)
		case opDeleteAt:
			k, at := key(), int64(rnd.Intn(2000))
			_, had := ref.items[k]
			if existed := s.DeleteAt(k, at); existed != had {
				t.Fatalf("op %d: DeleteAt(%v) existed=%v, reference %v", op, k, existed, had)
			}
			ref.tombstone(k, at)
		case opDelete:
			k := key()
			_, had := ref.items[k]
			if existed := s.Delete(k); existed != had {
				t.Fatalf("op %d: Delete(%v) existed=%v, reference %v", op, k, existed, had)
			}
			at, _ := s.Tombstone(k)
			ref.tombstone(k, at)
		}
		switch after := len(s.blocks); {
		case after > before:
			splits += after - before
		case after < before:
			merges += before - after
		}
		maxLen = max(maxLen, s.Len())
		if op%2000 == 1999 {
			checkStore(t, op, &s, &fallback, ref, fref, rnd)
		}
	}
	t.Logf("up to %d items, %d block splits, %d block merges or drops", maxLen, splits, merges)
	if maxLen < 20000 || splits < 200 || merges < 200 {
		t.Fatalf("up to %d items, %d splits, %d merges or drops: the mix no longer exercises the layout", maxLen, splits, merges)
	}

	// Replay the sink's stream into an empty store: it must rebuild the
	// same items and tombstones.
	var replay Store
	for _, m := range log {
		replay.ApplyMutation(m)
	}
	checkInvariants(t, &replay)
	if !sameItems(replay.Items(), s.Items()) {
		t.Fatalf("replayed sink stream: %d items, store %d", replay.Len(), s.Len())
	}
	if !slices.Equal(replay.Tombstones(), s.Tombstones()) {
		t.Fatalf("replayed sink stream: %d tombstones, store %d", replay.TombstoneCount(), s.TombstoneCount())
	}
}

// checkStore compares s (and its merge with fallback) against the
// references.
func checkStore(t *testing.T, op int, s, fallback *Store, ref, fref *model, rnd *rand.Rand) {
	t.Helper()
	checkInvariants(t, s)
	checkInvariants(t, fallback)
	sorted := ref.sorted()
	if s.Len() != len(sorted) {
		t.Fatalf("op %d: Len = %d, reference %d", op, s.Len(), len(sorted))
	}
	if !sameItems(s.Items(), sorted) {
		t.Fatalf("op %d: Items differ from the reference", op)
	}
	if !slices.Equal(s.Tombstones(), ref.sortedTombs()) {
		t.Fatalf("op %d: Tombstones differ from the reference", op)
	}
	for _, it := range sorted {
		if v, ok := s.Get(it.Key); !ok || !bytes.Equal(v, it.Value) {
			t.Fatalf("op %d: Get(%v) = %q, %v; want %q", op, it.Key, v, ok, it.Value)
		}
	}
	for i := 0; i < 200; i++ {
		k := keyspace.Key(rnd.Uint64())
		_, want := ref.items[k]
		if _, ok := s.Get(k); ok != want {
			t.Fatalf("op %d: Get(%v) found=%v, reference %v", op, k, ok, want)
		}
	}

	// Leaves of the maintained digest must equal a from-scratch rebuild.
	maintained := s.DigestLeaves()
	s.EnableDigest(antientropy.DefaultDepth)
	if !slices.Equal(maintained, s.DigestLeaves()) {
		t.Fatalf("op %d: maintained digest differs from a rebuild", op)
	}

	// Arcs: plain, wrapping and full, plus arcs whose ends sit exactly on
	// block boundaries (a block's first key, or one past its last key).
	var arcs []keyspace.Range
	for i := 0; i < 3; i++ {
		a, b := keyspace.Key(rnd.Uint64()), keyspace.Key(rnd.Uint64())
		if a > b {
			a, b = b, a
		}
		arcs = append(arcs, keyspace.Range{Start: a, End: b}, keyspace.Range{Start: b, End: a})
	}
	arcs = append(arcs, keyspace.FullRange(), keyspace.Range{Start: keyspace.Key(rnd.Uint64())})
	if nb := len(s.blocks); nb > 0 {
		first := func(b int) keyspace.Key { return s.blocks[b][0].Key }
		pastLast := func(b int) keyspace.Key { return s.blocks[b][len(s.blocks[b])-1].Key + 1 }
		for i := 0; i < 3; i++ {
			b1, b2 := rnd.Intn(nb), rnd.Intn(nb)
			arcs = append(arcs,
				keyspace.Range{Start: first(b1), End: first(b2)},
				keyspace.Range{Start: first(b1), End: pastLast(b2)},
				keyspace.Range{Start: pastLast(b1), End: first(b2)},
				keyspace.Range{Start: first(b1), End: first(b1)})
		}
	}
	// The merged view: the primary wins duplicates and hides fallback keys
	// it holds a tombstone for.
	var merged []Item
	for _, it := range fref.sorted() {
		_, dup := ref.items[it.Key]
		_, dead := ref.tombs[it.Key]
		if !dup && !dead {
			merged = append(merged, it)
		}
	}
	merged = append(merged, sorted...)
	slices.SortFunc(merged, func(a, b Item) int { return cmpKey(a.Key, b.Key) })
	for _, rg := range arcs {
		want := clockwise(sorted, rg)
		got := make([]Item, 0, len(want))
		s.Scan(rg, func(it Item) bool { got = append(got, it); return true })
		if !sameItems(got, want) {
			t.Fatalf("op %d: Scan(%v) = %d items, want %d", op, rg, len(got), len(want))
		}
		if len(want) > 0 {
			stop := rnd.Intn(len(want))
			var head []Item
			s.Scan(rg, func(it Item) bool { head = append(head, it); return len(head) <= stop })
			if !sameItems(head, want[:stop+1]) {
				t.Fatalf("op %d: Scan(%v) stopped after %d items, want %d", op, rg, len(head), stop+1)
			}
		}

		maxItems, maxBytes := rnd.Intn(2*blockCap), rnd.Intn(20000)
		page, more := s.ScanPage(rg, maxItems, maxBytes)
		wantPage, wantMore := refPage(want, maxItems, maxBytes)
		if !sameItems(page, wantPage) || more != wantMore {
			t.Fatalf("op %d: ScanPage(%v, %d, %d) = %d items more=%v, want %d more=%v",
				op, rg, maxItems, maxBytes, len(page), more, len(wantPage), wantMore)
		}

		page, more = ScanPageMerged(s, fallback, rg, maxItems, maxBytes)
		wantPage, wantMore = refPage(clockwise(merged, rg), maxItems, maxBytes)
		if !sameItems(page, wantPage) || more != wantMore {
			t.Fatalf("op %d: ScanPageMerged(%v, %d, %d) = %d items more=%v, want %d more=%v",
				op, rg, maxItems, maxBytes, len(page), more, len(wantPage), wantMore)
		}
	}
}
