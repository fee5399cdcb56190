package main

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	oscar "github.com/oscar-overlay/oscar"
	"github.com/oscar-overlay/oscar/internal/antientropy"
	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/rng"
	"github.com/oscar-overlay/oscar/internal/storage"
	"github.com/oscar-overlay/oscar/internal/wal"
)

// infoTotals sums the Info counters of every node.
type infoTotals struct {
	routeHits, routeMisses uint64
	hotHits, hotMisses     uint64
	aeRounds, aePushed     int
	maxShard, liveItems    int
}

func readInfo(ctx context.Context, c *cluster) (infoTotals, error) {
	var t infoTotals
	for _, n := range c.nodes {
		info, err := n.Info(ctx)
		if err != nil {
			return t, err
		}
		t.routeHits += info.RouteCacheHits
		t.routeMisses += info.RouteCacheMisses
		t.hotHits += info.HotKeyCacheHits
		t.hotMisses += info.HotKeyCacheMisses
		t.aeRounds += info.AntiEntropy.Rounds
		t.aePushed += info.AntiEntropy.KeysPushed
		t.maxShard = max(t.maxShard, info.StoredItems, info.ReplicaItems)
		t.liveItems += info.StoredItems + info.ReplicaItems
	}
	return t, nil
}

func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// infoMetrics adds the metrics read from Info deltas over a window.
func infoMetrics(before, after infoTotals, m map[string]float64) {
	m["routecache.hit_ratio"] = ratio(after.routeHits-before.routeHits, after.routeMisses-before.routeMisses)
	m["hotkey.hit_ratio"] = ratio(after.hotHits-before.hotHits, after.hotMisses-before.hotMisses)
	m["antientropy.rounds"] = float64(after.aeRounds - before.aeRounds)
	m["antientropy.keys_pushed"] = float64(after.aePushed - before.aePushed)
	m["storage.max_shard_items"] = float64(after.maxShard)
}

// storageOps is how many operations each standalone storage timing batch
// runs; storageBatches batches are run and the median batch reported.
const (
	storageOps     = 2000
	storageBatches = 5
)

// storageMetrics times the storage layer standalone on a shard of the
// given size, built like a node's primary store (digest tree on): the
// mean cost of inserting a new key, overwriting one, a point read, and a
// 64-item scan page.
func storageMetrics(seed int64, size int, m map[string]float64) {
	dist := oscar.GnutellaKeys()
	r := rng.Derive(seed, "perfbench-storage")
	seen := make(map[keyspace.Key]bool, size+storageOps*storageBatches)
	draw := func(n int) []keyspace.Key {
		out := make([]keyspace.Key, 0, n)
		for len(out) < n {
			if k := dist.Sample(r); !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
		return out
	}
	base := draw(size)
	sorted := append([]keyspace.Key(nil), base...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	val := make([]byte, valueSize)
	var st storage.Store
	items := make([]storage.Item, len(sorted))
	for i, k := range sorted {
		items[i] = storage.Item{Key: k, Value: val}
	}
	st.InsertBulk(items)
	st.EnableDigest(antientropy.DefaultDepth)

	timed := func(fn func(i int)) float64 {
		var batches []float64
		for b := 0; b < storageBatches; b++ {
			start := time.Now()
			for i := 0; i < storageOps; i++ {
				fn(i)
			}
			batches = append(batches, float64(time.Since(start).Nanoseconds())/1e3/storageOps)
		}
		return median(batches)
	}
	fresh := draw(storageOps * storageBatches)
	next := 0
	m["storage.insert_us"] = timed(func(int) {
		st.Put(fresh[next], val)
		next++
	})
	m["storage.overwrite_us"] = timed(func(i int) { st.Put(base[(i*7919)%len(base)], val) })
	m["storage.get_us"] = timed(func(i int) { st.Get(base[(i*7919)%len(base)]) })
	m["storage.scan_page_us"] = timed(func(i int) {
		k := base[(i*7919)%len(base)]
		st.ScanPage(keyspace.Range{Start: k, End: k - 1}, scanLimit, storage.PageMaxBytes)
	})
}

// walAppends is the number of appends each standalone WAL timing makes.
const walAppends = 1000

// walMetrics times WAL appends standalone with the given fsync policy and
// the workloads' record size: one appender, then two concurrent appenders
// (which share fsyncs through group commit). Metrics are named
// wal.<prefix>append_us_p50, wal.<prefix>append_us_p99 and
// wal.<prefix>append2_us_p50.
func walMetrics(dir string, policy wal.Policy, prefix string, m map[string]float64) error {
	run := func(sub string, appenders int) ([]float64, error) {
		e, _, err := wal.Open(wal.Options{Dir: filepath.Join(dir, sub), Policy: policy})
		if err != nil {
			return nil, err
		}
		lat := make([][]float64, appenders)
		errs := make([]error, appenders)
		var wg sync.WaitGroup
		for a := 0; a < appenders; a++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				val := make([]byte, valueSize)
				for i := 0; i < walAppends/appenders; i++ {
					rec := wal.Record{Store: wal.StorePrimary, Mut: storage.Mutation{Op: storage.MutPut, Key: keyspace.Key(a<<32 | i), Value: val}}
					start := time.Now()
					if err := e.Append(rec); err != nil {
						errs[a] = err
						return
					}
					lat[a] = append(lat[a], float64(time.Since(start).Nanoseconds())/1e3)
				}
			}()
		}
		wg.Wait()
		cerr := e.Close()
		var all []float64
		for a := range lat {
			if errs[a] != nil {
				return nil, errs[a]
			}
			all = append(all, lat[a]...)
		}
		return all, cerr
	}
	one, err := run(prefix+"1", 1)
	if err != nil {
		return err
	}
	two, err := run(prefix+"2", 2)
	if err != nil {
		return err
	}
	s := summarize(one)
	m["wal."+prefix+"append_us_p50"], m["wal."+prefix+"append_us_p99"] = s.p50, s.tail
	m["wal."+prefix+"append2_us_p50"] = summarize(two).p50
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// snapshotWatch counts compacted snapshots written under a durable
// cluster's data dirs by polling each node's snapshot file: every snapshot
// is a new file renamed into place.
type snapshotWatch struct {
	stop  chan struct{}
	done  chan struct{}
	count int
}

func watchSnapshots(root string, nodes int) *snapshotWatch {
	w := &snapshotWatch{stop: make(chan struct{}), done: make(chan struct{})}
	paths := make([]string, nodes)
	last := make([]os.FileInfo, nodes)
	for i := range paths {
		paths[i] = filepath.Join(root, "node-"+strconv.Itoa(i), "snapshot")
		last[i], _ = os.Stat(paths[i])
	}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
			for i, p := range paths {
				cur, err := os.Stat(p)
				if err != nil {
					continue
				}
				if last[i] == nil || !os.SameFile(last[i], cur) {
					w.count++
				}
				last[i] = cur
			}
		}
	}()
	return w
}

// finish stops the watcher and returns the snapshots it saw.
func (w *snapshotWatch) finish() int {
	close(w.stop)
	<-w.done
	return w.count
}
