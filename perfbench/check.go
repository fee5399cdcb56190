package main

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"

	"github.com/oscar-overlay/oscar/internal/keyspace"
)

// valueSize is the size of every value the workloads write.
const valueSize = 128

// scanLimit caps every scan the workloads issue.
const scanLimit = 64

// encodeValue fills dst (valueSize bytes) with the value version ver of
// key k: the key and version in the clear, then a body derived from both
// and the run seed, so a reader can tell which write it saw and that the
// bytes are intact.
func encodeValue(dst []byte, seed uint64, k keyspace.Key, ver uint64) {
	binary.LittleEndian.PutUint64(dst[0:], uint64(k))
	binary.LittleEndian.PutUint64(dst[8:], ver)
	x := seed ^ uint64(k)*0x9e3779b97f4a7c15 ^ ver*0xbf58476d1ce4e5b9
	for off := 16; off < valueSize; off += 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(dst[off:], x)
	}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// decodeValue returns the version v holds for key k, or an error when v is
// not a value the workload wrote for k.
func decodeValue(v []byte, seed uint64, k keyspace.Key) (uint64, error) {
	if len(v) != valueSize {
		return 0, fmt.Errorf("value of %d bytes, want %d", len(v), valueSize)
	}
	if got := keyspace.Key(binary.LittleEndian.Uint64(v)); got != k {
		return 0, fmt.Errorf("value belongs to key %v", got)
	}
	ver := binary.LittleEndian.Uint64(v[8:])
	var want [valueSize]byte
	encodeValue(want[:], seed, k, ver)
	if string(want[:]) != string(v) {
		return 0, fmt.Errorf("corrupt body for version %d", ver)
	}
	return ver, nil
}

// ledger is the benchmark's record of what the cluster must hold. Keys are
// striped over the clients by index: client c alone writes the keys with
// index%clients == c, so it knows the exact value each of them must read
// back; any other key must read back some value the workload issued for it.
type ledger struct {
	seed  uint64
	keys  []keyspace.Key
	index map[keyspace.Key]int32
	// byKey lists key indices in clockwise key order from key 0.
	byKey []int32
	// issued is the highest version handed to a put of each key (0: none).
	issued []atomic.Uint64
	// ackedAt is when a write of the key was first acknowledged, in
	// nanoseconds since the epoch (0: never); scans must return every key
	// acknowledged before they started.
	ackedAt []atomic.Int64
	// acked and uncertain belong to the stripe's client: the last
	// acknowledged version, and whether a failed put since then may or may
	// not have landed.
	acked     []uint64
	uncertain []bool
}

func newLedger(seed uint64, keys []keyspace.Key) *ledger {
	l := &ledger{
		seed:      seed,
		keys:      keys,
		index:     make(map[keyspace.Key]int32, len(keys)),
		byKey:     make([]int32, len(keys)),
		issued:    make([]atomic.Uint64, len(keys)),
		ackedAt:   make([]atomic.Int64, len(keys)),
		acked:     make([]uint64, len(keys)),
		uncertain: make([]bool, len(keys)),
	}
	for i, k := range keys {
		l.index[k] = int32(i)
		l.byKey[i] = int32(i)
	}
	sort.Slice(l.byKey, func(a, b int) bool { return keys[l.byKey[a]] < keys[l.byKey[b]] })
	return l
}

func (l *ledger) stripe(idx int) int { return idx % clients }

// issue hands out the next version of key idx and its value. The value is
// a fresh buffer: the in-memory fabric stores the caller's slice as-is, so
// a reused buffer would rewrite values already stored.
func (l *ledger) issue(idx int) (uint64, []byte) {
	ver := l.issued[idx].Add(1)
	val := make([]byte, valueSize)
	encodeValue(val, l.seed, l.keys[idx], ver)
	return ver, val
}

// ack records the outcome of a put of version ver of key idx.
func (l *ledger) ack(idx int, ver uint64, ok bool, now int64) {
	if !ok {
		l.uncertain[idx] = true
		return
	}
	l.acked[idx], l.uncertain[idx] = ver, false
	l.ackedAt[idx].CompareAndSwap(0, now)
}

// checkOwn verifies that version ver is what key idx may read back to the
// client owning its stripe: the last acknowledged version, or a later one
// whose put failed without saying whether it landed.
func (l *ledger) checkOwn(idx int, ver uint64) error {
	if ver == l.acked[idx] || (l.uncertain[idx] && ver > l.acked[idx] && ver <= l.issued[idx].Load()) {
		return nil
	}
	return fmt.Errorf("key %v read version %d, last acknowledged %d", l.keys[idx], ver, l.acked[idx])
}

// checkRead verifies a get of key idx by client c that returned v.
func (l *ledger) checkRead(c, idx int, v []byte) error {
	ver, err := decodeValue(v, l.seed, l.keys[idx])
	if err != nil {
		return fmt.Errorf("key %v: %w", l.keys[idx], err)
	}
	if l.stripe(idx) == c {
		return l.checkOwn(idx, ver)
	}
	if ver == 0 || ver > l.issued[idx].Load() {
		return fmt.Errorf("key %v read version %d, never issued", l.keys[idx], ver)
	}
	return nil
}

// item is one scanned record.
type item struct {
	key   keyspace.Key
	value []byte
}

// checkScan verifies a scan of [start, end) limited to scanLimit items,
// issued by client c at time began: the items come back in clockwise order
// without duplicates, each holds a value the workload wrote, and no key
// acknowledged before the scan began is skipped.
func (l *ledger) checkScan(c int, start, end keyspace.Key, items []item, began int64) error {
	if len(items) > scanLimit {
		return fmt.Errorf("scan returned %d items, limit %d", len(items), scanLimit)
	}
	rg := keyspace.Range{Start: start, End: end}
	var prev uint64
	for i, it := range items {
		if !rg.Contains(it.key) {
			return fmt.Errorf("scan item %v outside %v", it.key, rg)
		}
		d := start.Distance(it.key)
		if i > 0 && d <= prev {
			return fmt.Errorf("scan item %v out of clockwise order or duplicated", it.key)
		}
		prev = d
		idx, ok := l.index[it.key]
		if !ok {
			return fmt.Errorf("scan returned unknown key %v", it.key)
		}
		if err := l.checkRead(c, int(idx), it.value); err != nil {
			return fmt.Errorf("scan: %w", err)
		}
	}
	// Walk the known keys clockwise from start over the span the scan
	// covered: the whole range when it came back short, up to its last
	// item otherwise.
	covers := func(k keyspace.Key) bool { return rg.Contains(k) }
	if len(items) == scanLimit {
		last := start.Distance(items[len(items)-1].key)
		covers = func(k keyspace.Key) bool { return start.Distance(k) <= last }
	}
	pos := sort.Search(len(l.byKey), func(i int) bool { return l.keys[l.byKey[i]] >= start })
	got := 0
	for n := 0; n < len(l.byKey); n++ {
		idx := l.byKey[(pos+n)%len(l.byKey)]
		k := l.keys[idx]
		if !covers(k) {
			break
		}
		for got < len(items) && start.Distance(items[got].key) < start.Distance(k) {
			got++
		}
		present := got < len(items) && items[got].key == k
		if at := l.ackedAt[idx].Load(); !present && at != 0 && at < began {
			return fmt.Errorf("scan from %v skipped acknowledged key %v", start, k)
		}
	}
	return nil
}
