package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/oscar-overlay/oscar/internal/keyspace"
)

// benchSizes are the shard sizes the store benchmarks sweep: a new-key put
// and a get should cost about the same at every one.
var benchSizes = []int{1_000, 10_000, 100_000, 1_000_000}

// benchStores caches one filled store per size across the b.N rounds and
// benchmarks; every benchmark leaves its store holding the same keys.
var benchStores = map[int]struct {
	s    *Store
	keys []keyspace.Key
}{}

// benchValue keeps the compiler from dropping the measured Get.
var benchValue []byte

// benchStore returns a store of n random keys, inserted in random order as
// a live shard fills, and those keys in insertion order.
func benchStore(n int) (*Store, []keyspace.Key) {
	if c, ok := benchStores[n]; ok {
		return c.s, c.keys
	}
	rnd := rand.New(rand.NewSource(int64(n)))
	val := make([]byte, 64)
	s := &Store{}
	keys := make([]keyspace.Key, n)
	for i := range keys {
		keys[i] = keyspace.Key(rnd.Uint64())
		s.Put(keys[i], val)
	}
	benchStores[n] = struct {
		s    *Store
		keys []keyspace.Key
	}{s, keys}
	return s, keys
}

// BenchmarkStorePutNewKey times inserting a key the shard does not hold.
// Inserted keys are dropped again, untimed, every batch (a tenth of the
// shard, at least 100 and at most 1000 keys), so the shard stays at its
// nominal size.
func BenchmarkStorePutNewKey(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("items=%d", n), func(b *testing.B) {
			s, _ := benchStore(n)
			rnd := rand.New(rand.NewSource(1))
			fresh := make([]keyspace.Key, min(max(n/10, 100), 1000))
			val := make([]byte, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				b.StopTimer()
				batch := fresh[:min(len(fresh), b.N-done)]
				for j := range batch {
					batch[j] = keyspace.Key(rnd.Uint64())
				}
				b.StartTimer()
				for _, k := range batch {
					s.Put(k, val)
				}
				b.StopTimer()
				for _, k := range batch {
					s.Drop(k)
				}
				done += len(batch)
				b.StartTimer()
			}
		})
	}
}

// BenchmarkStoreGet times a lookup of a present key, in random key order.
func BenchmarkStoreGet(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("items=%d", n), func(b *testing.B) {
			s, keys := benchStore(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchValue, _ = s.Get(keys[i%len(keys)])
			}
		})
	}
}
