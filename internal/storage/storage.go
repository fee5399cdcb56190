// Package storage is the per-peer ordered key-value store of the data
// layer. The overlay is order-preserving precisely so that stores can be
// range-partitioned: peer p holds every item whose key falls in the arc
// (pred(p), p], and range queries scan consecutive peers' stores.
//
// Items are kept in chunked sorted blocks: a key-ordered index of small
// sorted slices, each holding at most blockCap items. A lookup is two
// binary searches (the index by each block's last key, then the block),
// and an insert or delete moves at most one block's items, so a put costs
// the same on a shard of a thousand items as on one of a million — a
// high-capacity peer that owns a larger arc pays no more per write. A full
// block splits in two; adjacent blocks whose combined length falls under
// half a block merge, so deletes and range extractions never leave a long
// tail of tiny blocks. Blocks stay contiguous, so scans walk memory in
// order and hand out per-block subslices without copying.
//
// Two replication concerns live here alongside the items:
//
//   - Tombstones. Delete does not just remove the item — it records the key
//     as deleted (with a timestamp for TTL garbage collection), so that
//     anti-entropy sync and arc re-syncs can distinguish "this replica never
//     saw the key" from "this key was deleted" and never resurrect deleted
//     data from a stale copy. A later Put clears the tombstone.
//
//   - Digests. A store can maintain an antientropy.Tree summary of its
//     contents (items and tombstones alike), updated in O(1) on every
//     mutation, so an arc owner can open a sync round without rehashing its
//     shard. Stores that don't need it (replica stores) compute digests
//     on demand with Digest instead.
package storage

import (
	"slices"
	"sort"
	"time"

	"github.com/oscar-overlay/oscar/internal/antientropy"
	"github.com/oscar-overlay/oscar/internal/keyspace"
)

// Page bounds shared by every frame-bounded bulk transfer of the data
// layer: replicate pushes, migrate responses and scan pages alike stop at
// PageMaxItems items or once the accumulated value bytes would pass
// PageMaxBytes — an order of magnitude under the transport's 16 MiB frame
// cap, so no single response can approach it.
const (
	PageMaxItems = 512
	PageMaxBytes = 4 << 20
)

// Block sizing. An insert memmoves half a block on average (8 KiB at 32
// bytes per Item), which keeps it well under a microsecond, while the
// index stays small enough (a few thousand headers at a million items) to
// binary-search from cache.
const (
	blockCap   = 512          // most items a block holds; a full block splits
	mergeBelow = blockCap / 2 // adjacent blocks shorter than this together merge
)

// Item is one stored record.
type Item struct {
	Key   keyspace.Key
	Value []byte
}

// Tombstone records one deleted key and when it was deleted (unix
// nanoseconds, by the clock of the node that recorded it). The timestamp
// drives TTL garbage collection only — it is deliberately excluded from
// digests, so two nodes that agree a key is deleted agree on its hash no
// matter when each learned of the delete.
type Tombstone struct {
	Key keyspace.Key `json:"key"`
	At  int64        `json:"at"`
}

// Store is one peer's shard, ordered by key. The zero value is an empty
// store ready to use.
type Store struct {
	// blocks partitions the items in key order: every block is sorted,
	// non-empty and at most blockCap long, each block's keys precede the
	// next block's, and any two adjacent blocks hold at least mergeBelow
	// items together.
	blocks [][]Item
	n      int         // items across all blocks
	tombs  []Tombstone // sorted by Key ascending; disjoint from items
	// tree, when enabled, is the incrementally-maintained digest of items
	// and tombstones together.
	tree *antientropy.Tree
	// sink, when set, observes every primitive mutation in apply order —
	// the write-ahead-log hook, attached alongside the digest tree so the
	// two can never disagree about what happened. See SetSink.
	sink func(Mutation)
}

// Len returns the number of live items (tombstones excluded).
func (s *Store) Len() int { return s.n }

// TombstoneCount returns the number of recorded tombstones.
func (s *Store) TombstoneCount() int { return len(s.tombs) }

// search returns the position (block b, index i) of the first item with
// key >= k, or (len(s.blocks), 0) when every key is below k.
func (s *Store) search(k keyspace.Key) (b, i int) {
	lo, hi := 0, len(s.blocks)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if blk := s.blocks[m]; blk[len(blk)-1].Key < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(s.blocks) {
		return lo, 0
	}
	blk := s.blocks[lo]
	i, j := 0, len(blk)
	for i < j {
		m := int(uint(i+j) >> 1)
		if blk[m].Key < k {
			i = m + 1
		} else {
			j = m
		}
	}
	return lo, i
}

// find returns the position of the item with key k, if present.
func (s *Store) find(k keyspace.Key) (b, i int, ok bool) {
	b, i = s.search(k)
	return b, i, b < len(s.blocks) && s.blocks[b][i].Key == k
}

// searchTomb returns the index of the first tombstone with key >= k.
func (s *Store) searchTomb(k keyspace.Key) int {
	return sort.Search(len(s.tombs), func(i int) bool { return s.tombs[i].Key >= k })
}

// apply toggles a state hash in the digest tree, if one is maintained.
func (s *Store) apply(k keyspace.Key, h uint64) {
	if s.tree != nil {
		s.tree.Apply(k, h)
	}
}

// Put inserts or replaces the value for k and reports whether an existing
// item was replaced. The value slice is stored as-is (callers own it). A
// tombstone for k, if any, is cleared: a fresh write supersedes the delete.
func (s *Store) Put(k keyspace.Key, v []byte) (replaced bool) {
	s.emit(Mutation{Op: MutPut, Key: k, Value: v})
	s.clearTombstone(k)
	b, i, ok := s.find(k)
	if ok {
		it := &s.blocks[b][i]
		s.apply(k, antientropy.ItemHash(k, it.Value))
		it.Value = v
		s.apply(k, antientropy.ItemHash(k, v))
		return true
	}
	s.insertAt(b, i, Item{Key: k, Value: v})
	s.apply(k, antientropy.ItemHash(k, v))
	return false
}

// insertAt inserts it at position (b, i) as returned by search, splitting
// a full block first. Only the one block receiving the item is moved.
func (s *Store) insertAt(b, i int, it Item) {
	if len(s.blocks) == 0 {
		s.blocks = append(s.blocks, nil)
	}
	if b == len(s.blocks) { // past every key: append to the last block
		b--
		i = len(s.blocks[b])
	}
	if blk := s.blocks[b]; len(blk) == blockCap {
		h := blockCap / 2
		s.blocks[b] = append(make([]Item, 0, h), blk[:h]...)
		s.blocks = slices.Insert(s.blocks, b+1, append(make([]Item, 0, blockCap-h), blk[h:]...))
		if i > h {
			b, i = b+1, i-h
		}
	}
	blk := s.blocks[b]
	if len(blk) == cap(blk) {
		// Grow by about an eighth, not append's doubling: blocks are
		// numerous, and their spare capacity is the store's heap overhead.
		blk = append(make([]Item, 0, min(blockCap, len(blk)+max(len(blk)/8, 8))), blk...)
	}
	blk = blk[:len(blk)+1]
	copy(blk[i+1:], blk[i:])
	blk[i] = it
	s.blocks[b] = blk
	s.n++
}

// Get returns the value for k.
func (s *Store) Get(k keyspace.Key) ([]byte, bool) {
	if b, i, ok := s.find(k); ok {
		return s.blocks[b][i].Value, true
	}
	return nil, false
}

// Delete removes the item with key k and reports whether it existed. The
// delete is recorded as a tombstone (whether or not an item existed — the
// caller may be clearing a copy it cannot see), timestamped now, so sync
// protocols propagate it instead of resurrecting the key from stale copies.
func (s *Store) Delete(k keyspace.Key) bool {
	return s.DeleteAt(k, time.Now().UnixNano())
}

// DeleteAt is Delete with an explicit tombstone timestamp (unix nanos).
func (s *Store) DeleteAt(k keyspace.Key, at int64) bool {
	s.emit(Mutation{Op: MutTombstone, Key: k, At: at})
	existed := s.removeItem(k)
	s.setTomb(k, at)
	return existed
}

// removeItem removes the live item for k without recording a tombstone.
func (s *Store) removeItem(k keyspace.Key) bool {
	b, i, ok := s.find(k)
	if !ok {
		return false
	}
	s.apply(k, antientropy.ItemHash(k, s.blocks[b][i].Value))
	s.cut(b, i, 1)
	return true
}

// cut removes up to n consecutive items starting at position (b, i),
// stopping at the end of the store, and returns how many it removed.
// Emptied blocks are dropped and undersized neighbours merged.
func (s *Store) cut(b, i, n int) int {
	first, removed := b, 0
	for ; b < len(s.blocks) && removed < n; b, i = b+1, 0 {
		blk := s.blocks[b]
		j := min(len(blk), i+n-removed)
		removed += j - i
		kept := i + copy(blk[i:], blk[j:])
		clear(blk[kept:]) // release the vacated values
		s.blocks[b] = blk[:kept]
	}
	s.n -= removed
	// Blocks first..b-1 shrank; first-1 and b did not, so the pairs just
	// outside this window still meet the merge invariant.
	s.repack(first-1, b)
	return removed
}

// repack restores the block invariants over s.blocks[lo..hi] (clamped):
// empty blocks are dropped and each block merges into its predecessor in
// the window while the two together hold fewer than mergeBelow items. One
// greedy pass suffices: a block that survives only ever grows afterwards,
// so every pair it forms stays at or above mergeBelow.
func (s *Store) repack(lo, hi int) {
	lo, hi = max(lo, 0), min(hi, len(s.blocks)-1)
	w := lo
	for r := lo; r <= hi; r++ {
		blk := s.blocks[r]
		if len(blk) == 0 {
			continue
		}
		if w > lo && len(s.blocks[w-1])+len(blk) < mergeBelow {
			prev := s.blocks[w-1]
			if len(prev)+len(blk) > cap(prev) {
				prev = append(make([]Item, 0, len(prev)+len(blk)), prev...)
			}
			s.blocks[w-1] = append(prev, blk...)
			continue
		}
		s.blocks[w] = blk
		w++
	}
	if w <= hi {
		s.blocks = slices.Delete(s.blocks, w, hi+1)
	}
}

// setTomb records (or refreshes) the tombstone for k, keeping the newest
// timestamp. The digest is unchanged when a tombstone already exists: the
// tombstone hash covers the key only, so refreshing the clock is invisible.
func (s *Store) setTomb(k keyspace.Key, at int64) {
	i := s.searchTomb(k)
	if i < len(s.tombs) && s.tombs[i].Key == k {
		if at > s.tombs[i].At {
			s.tombs[i].At = at
		}
		return
	}
	s.tombs = append(s.tombs, Tombstone{})
	copy(s.tombs[i+1:], s.tombs[i:])
	s.tombs[i] = Tombstone{Key: k, At: at}
	s.apply(k, antientropy.TombHash(k))
}

// clearTombstone removes the tombstone for k, if any.
func (s *Store) clearTombstone(k keyspace.Key) bool {
	i := s.searchTomb(k)
	if i == len(s.tombs) || s.tombs[i].Key != k {
		return false
	}
	s.apply(k, antientropy.TombHash(k))
	s.tombs = append(s.tombs[:i], s.tombs[i+1:]...)
	return true
}

// SetTombstone applies a delete learned from elsewhere (an owner's
// anti-entropy push, a replicated delete): the live copy, if any, is
// removed and the key is marked deleted with the given timestamp (newest
// wins). It reports whether a live item was removed.
func (s *Store) SetTombstone(k keyspace.Key, at int64) bool {
	s.emit(Mutation{Op: MutTombstone, Key: k, At: at})
	existed := s.removeItem(k)
	s.setTomb(k, at)
	return existed
}

// Tombstone returns the deletion timestamp for k, if the key is tombstoned.
func (s *Store) Tombstone(k keyspace.Key) (int64, bool) {
	i := s.searchTomb(k)
	if i < len(s.tombs) && s.tombs[i].Key == k {
		return s.tombs[i].At, true
	}
	return 0, false
}

// InsertTombstones merges learned tombstones into the store (newest
// timestamp wins), removing any live copies of those keys.
func (s *Store) InsertTombstones(tombs []Tombstone) {
	for _, tb := range tombs {
		s.SetTombstone(tb.Key, tb.At)
	}
}

// Drop removes every trace of k — live item and tombstone alike — without
// recording a delete. It is the cleanup primitive for stray replica state
// the arc owner has no record of.
func (s *Store) Drop(k keyspace.Key) {
	s.emit(Mutation{Op: MutDrop, Key: k})
	s.removeItem(k)
	s.clearTombstone(k)
}

// GCTombstones discards tombstones recorded before cutoff (unix nanos) and
// returns how many were collected. Run it on a TTL well above the
// anti-entropy interval: a tombstone only needs to survive until every
// replica has either applied it or been dropped from the chain.
func (s *Store) GCTombstones(cutoff int64) int {
	kept := s.tombs[:0]
	dropped := 0
	for _, tb := range s.tombs {
		if tb.At < cutoff {
			s.apply(tb.Key, antientropy.TombHash(tb.Key))
			dropped++
		} else {
			kept = append(kept, tb)
		}
	}
	s.tombs = kept
	if dropped > 0 {
		s.emit(Mutation{Op: MutGC, At: cutoff})
	}
	return dropped
}

// Scan visits items whose keys lie in the clockwise arc rg, in clockwise
// order starting from rg.Start; fn returning false stops the scan. Wrapping
// arcs are handled (the scan may start near the top of the key space and
// continue from the bottom). Tombstoned keys are not visited.
func (s *Store) Scan(rg keyspace.Range, fn func(Item) bool) {
	s.eachView(rg, func(view []Item) bool {
		for _, it := range view {
			if !fn(it) {
				return false
			}
		}
		return true
	})
}

// ScanPage returns up to maxItems items (whose accumulated value bytes
// stay within maxBytes) with keys in rg, in clockwise order from rg.Start,
// without removing them — the non-destructive sibling of ExtractRangeLimit
// and the single-store page of a streaming scan. At least one item ships
// when the range holds any (a single oversized value still pages), and a
// cap <= 0 is no cap. more reports that at least one further item remains
// in the range past the returned page; resume from the last returned key
// plus one.
func (s *Store) ScanPage(rg keyspace.Range, maxItems, maxBytes int) (out []Item, more bool) {
	bytes := 0
	s.Scan(rg, func(it Item) bool {
		if maxItems > 0 && len(out) >= maxItems {
			more = true
			return false
		}
		if maxBytes > 0 && len(out) > 0 && bytes+len(it.Value) > maxBytes {
			more = true
			return false
		}
		bytes += len(it.Value)
		out = append(out, it)
		return true
	})
	return out, more
}

// rangeViews returns per-block subslice views of the store covering rg in
// clockwise order from rg.Start (a wrapping arc continues from the bottom
// of the key space). The views alias the store's blocks — read-only, valid
// until the next mutation.
func (s *Store) rangeViews(rg keyspace.Range) [][]Item {
	var out [][]Item
	s.eachView(rg, func(view []Item) bool {
		out = append(out, view)
		return true
	})
	return out
}

// eachView calls fn with the views rangeViews returns, in order, without
// collecting them; fn returning false stops the walk.
func (s *Store) eachView(rg keyspace.Range, fn func([]Item) bool) {
	if s == nil || s.n == 0 {
		return
	}
	b, i := s.search(rg.Start)
	eb, ei := b, i // a full arc ends back at rg.Start
	if !rg.IsFull() {
		eb, ei = s.search(rg.End)
	}
	if rg.Start < rg.End {
		s.spanViews(b, i, eb, ei, fn)
		return
	}
	// The arc runs to the top of the key space, then on from the bottom.
	if s.spanViews(b, i, len(s.blocks), 0, fn) {
		s.spanViews(0, 0, eb, ei, fn)
	}
}

// spanViews calls fn with the non-empty per-block subslices holding the
// items from position (b0, i0) up to, not including, position (b1, i1),
// and reports whether fn accepted every view.
func (s *Store) spanViews(b0, i0, b1, i1 int, fn func([]Item) bool) bool {
	for b := b0; b <= b1 && b < len(s.blocks); b++ {
		lo, hi := 0, len(s.blocks[b])
		if b == b0 {
			lo = i0
		}
		if b == b1 {
			hi = i1
		}
		if lo < hi && !fn(s.blocks[b][lo:hi]) {
			return false
		}
	}
	return true
}

// pageWalker pulls items one at a time from a store's clockwise range
// views — the pull-style iterator a two-store merge needs.
type pageWalker struct {
	parts [][]Item
}

func (w *pageWalker) peek() (Item, bool) {
	for len(w.parts) > 0 {
		if len(w.parts[0]) == 0 {
			w.parts = w.parts[1:]
			continue
		}
		return w.parts[0][0], true
	}
	return Item{}, false
}

func (w *pageWalker) advance() { w.parts[0] = w.parts[0][1:] }

// ScanPageMerged returns one bounded page of the clockwise merge of two
// stores restricted to rg, from rg.Start: primary items win key
// collisions, and a fallback item is suppressed when the primary holds a
// tombstone for its key — the primary's delete is authoritative, the same
// per-key rule the chain-fallback read path applies. It is the page
// primitive of the streaming scan: a node serves its own shard merged with
// its replica store, so a chain member can answer for a dead owner's arc
// and an owner that inherited un-promoted replica state serves it too.
//
// Bounds behave like ScanPage (maxItems items, maxBytes accumulated value
// bytes, at least one item when any qualifies, cap <= 0 is no cap), and
// more is exact: it is true only when a further emittable item exists, so
// a resumer never spins on an empty page.
func ScanPageMerged(primary, fallback *Store, rg keyspace.Range, maxItems, maxBytes int) (out []Item, more bool) {
	if primary == nil {
		primary = &Store{}
	}
	p := &pageWalker{parts: primary.rangeViews(rg)}
	f := &pageWalker{parts: fallback.rangeViews(rg)}
	bytes := 0
	for {
		it, ok := nextMerged(p, f, rg.Start, primary)
		if !ok {
			return out, false
		}
		if maxItems > 0 && len(out) >= maxItems {
			return out, true
		}
		if maxBytes > 0 && len(out) > 0 && bytes+len(it.Value) > maxBytes {
			return out, true
		}
		bytes += len(it.Value)
		out = append(out, it)
	}
}

// nextMerged pops the next emittable item of the two-store clockwise
// merge: ordering is by clockwise distance from start, duplicate keys keep
// the primary's copy, and fallback-only keys tombstoned at the primary are
// skipped entirely.
func nextMerged(p, f *pageWalker, start keyspace.Key, primary *Store) (Item, bool) {
	for {
		pi, pok := p.peek()
		fi, fok := f.peek()
		switch {
		case !pok && !fok:
			return Item{}, false
		case pok && (!fok || start.Distance(pi.Key) <= start.Distance(fi.Key)):
			p.advance()
			if fok && fi.Key == pi.Key {
				f.advance() // duplicate copy: the primary's value wins
			}
			return pi, true
		default:
			f.advance()
			if _, dead := primary.Tombstone(fi.Key); dead {
				continue // authoritatively deleted at the primary
			}
			return fi, true
		}
	}
}

// Items returns all items in key order (a copy of the slice headers; values
// are shared).
func (s *Store) Items() []Item {
	if s.n == 0 {
		return nil
	}
	out := make([]Item, 0, s.n)
	for _, blk := range s.blocks {
		out = append(out, blk...)
	}
	return out
}

// Walk visits the whole store in place, without copying the shard: every
// live item in key order, then every tombstone in key order. The first
// non-nil error from either callback stops the walk and is returned. The
// callbacks must not mutate the store.
func (s *Store) Walk(item func(Item) error, tomb func(Tombstone) error) error {
	for _, blk := range s.blocks {
		for _, it := range blk {
			if err := item(it); err != nil {
				return err
			}
		}
	}
	for _, tb := range s.tombs {
		if err := tomb(tb); err != nil {
			return err
		}
	}
	return nil
}

// ExtractRange removes and returns the items whose keys lie in rg — the
// migration primitive used when a joining peer takes over part of its
// successor's arc. Tombstones in rg are not touched; migrate them
// separately with ExtractTombstones.
func (s *Store) ExtractRange(rg keyspace.Range) []Item {
	var out []Item
	for b, blk := range s.blocks {
		kept := blk[:0]
		for _, it := range blk {
			if rg.Contains(it.Key) {
				s.emit(Mutation{Op: MutRemoveItem, Key: it.Key})
				s.apply(it.Key, antientropy.ItemHash(it.Key, it.Value))
				out = append(out, it)
			} else {
				kept = append(kept, it)
			}
		}
		clear(blk[len(kept):])
		s.blocks[b] = kept
	}
	s.n -= len(out)
	s.repack(0, len(s.blocks)-1)
	return out
}

// ExtractRangeLimit removes and returns items whose keys lie in rg, in
// clockwise order from rg.Start, stopping after maxItems items or once the
// accumulated value bytes would exceed maxBytes (at least one item is
// always extracted when the range is non-empty; a cap <= 0 is no cap).
// more reports that items remain in the range: because extraction removes
// what it returns, calling again with the same range yields the next
// chunk — the pagination primitive for migrating a large arc in bounded
// frames.
func (s *Store) ExtractRangeLimit(rg keyspace.Range, maxItems, maxBytes int) (out []Item, more bool) {
	out, more = s.ScanPage(rg, maxItems, maxBytes)
	for _, it := range out {
		s.emit(Mutation{Op: MutRemoveItem, Key: it.Key})
		s.apply(it.Key, antientropy.ItemHash(it.Key, it.Value))
	}
	// The page is one clockwise run from rg.Start, wrapping past the top
	// of the key space at most once.
	b, i := s.search(rg.Start)
	if n := s.cut(b, i, len(out)); n < len(out) {
		s.cut(0, 0, len(out)-n)
	}
	return out, more
}

// ExtractTombstones removes and returns the tombstones whose keys lie in rg
// — the delete knowledge travels with the arc it covers.
func (s *Store) ExtractTombstones(rg keyspace.Range) []Tombstone {
	var out []Tombstone
	kept := s.tombs[:0]
	for _, tb := range s.tombs {
		if rg.Contains(tb.Key) {
			s.emit(Mutation{Op: MutRemoveTomb, Key: tb.Key})
			s.apply(tb.Key, antientropy.TombHash(tb.Key))
			out = append(out, tb)
		} else {
			kept = append(kept, tb)
		}
	}
	s.tombs = kept
	return out
}

// InsertBulk merges items (each keyed uniquely) into the store.
func (s *Store) InsertBulk(items []Item) {
	for _, it := range items {
		s.Put(it.Key, it.Value)
	}
}

// EnableDigest attaches (or rebuilds) an incrementally-maintained digest
// tree of the given depth, seeded from the store's current contents. Every
// subsequent mutation updates it in O(1).
func (s *Store) EnableDigest(depth int) {
	t := antientropy.NewTree(depth)
	_ = s.Walk(func(it Item) error {
		t.Apply(it.Key, antientropy.ItemHash(it.Key, it.Value))
		return nil
	}, func(tb Tombstone) error {
		t.Apply(tb.Key, antientropy.TombHash(tb.Key))
		return nil
	}) // the callbacks never fail
	s.tree = t
}

// DigestLeaves returns the maintained digest's leaf vector, or nil if
// EnableDigest was never called.
func (s *Store) DigestLeaves() []uint64 {
	if s.tree == nil {
		return nil
	}
	return s.tree.Leaves()
}

// Digest computes the leaf vector of a depth-deep digest tree over the
// store's state (items and tombstones) restricted to rg. It is the
// on-demand counterpart of the maintained tree, used by replica stores
// answering a digest request for one owner's arc.
func (s *Store) Digest(rg keyspace.Range, depth int) []uint64 {
	t := antientropy.NewTree(depth)
	s.Scan(rg, func(it Item) bool {
		t.Apply(it.Key, antientropy.ItemHash(it.Key, it.Value))
		return true
	})
	for _, tb := range s.tombs {
		if rg.Contains(tb.Key) {
			t.Apply(tb.Key, antientropy.TombHash(tb.Key))
		}
	}
	return t.Leaves()
}

// SyncStates returns the per-key sync states (live items and tombstones
// merged) for keys in rg, sorted by key — the key-level unit of the
// anti-entropy pull round.
func (s *Store) SyncStates(rg keyspace.Range) []antientropy.State {
	var out []antientropy.State
	s.Scan(rg, func(it Item) bool {
		out = append(out, antientropy.State{Key: it.Key, Hash: antientropy.ItemHash(it.Key, it.Value)})
		return true
	})
	for _, tb := range s.tombs {
		if rg.Contains(tb.Key) {
			out = append(out, antientropy.State{Key: tb.Key, Hash: antientropy.TombHash(tb.Key), Deleted: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
