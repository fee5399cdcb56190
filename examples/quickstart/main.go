// Quickstart: the context-first Client API against a live cluster on the
// in-memory fabric — look keys up, store, fetch, delete and scan data —
// followed by the paper's measurement pass on a simulator-scale overlay.
// The same Client API runs over TCP (see examples/tcpcluster).
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	oscar "github.com/oscar-overlay/oscar"
)

func main() {
	ctx := context.Background()

	// 32 live peers on a heavy-tailed key distribution, each running the
	// real protocol (joins, stabilisation, walk-based link acquisition)
	// over in-memory channels instead of sockets. Every node is a Client
	// and safe for concurrent use; any of them can serve any key.
	c, err := oscar.StartCluster(ctx, 32, oscar.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	cl := c.Node(0)

	info, err := cl.Info(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster up: %d peers\n", info.Peers)

	// Route to the owner of a key. Routing is greedy over each peer's ring
	// pointers and long-range links; cost is the number of messages.
	key := oscar.KeyFromFloat(0.42)
	route, err := cl.Lookup(ctx, key)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lookup %v: owner at key %v in %d messages\n", key, route.Owner.Key, route.Cost)

	// The overlay is an order-preserving index: store items and query them
	// back, by key or by range.
	for i := 0; i < 100; i++ {
		k := oscar.KeyFromFloat(0.30 + 0.001*float64(i))
		if _, err := cl.Put(ctx, k, []byte(fmt.Sprintf("item-%03d", i))); err != nil {
			log.Fatal(err)
		}
	}
	got, err := cl.Get(ctx, oscar.KeyFromFloat(0.35))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("get 0.35: %q (%d messages)\n", got.Value, got.Cost)

	// Scan streams a range page by page from one shard owner at a time.
	sc := c.Node(7).Scan(ctx, oscar.KeyFromFloat(0.32), oscar.KeyFromFloat(0.36))
	n := 0
	for sc.Next() {
		n++
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	st := sc.Stats()
	fmt.Printf("scan [0.32,0.36): %d items from %d peers, %d messages\n", n, st.PeersScanned, st.Cost)

	// Deletes are first-class; a missing key is the typed ErrNotFound.
	if _, err := cl.Delete(ctx, oscar.KeyFromFloat(0.35)); err != nil {
		log.Fatal(err)
	}
	if _, err := cl.Get(ctx, oscar.KeyFromFloat(0.35)); errors.Is(err, oscar.ErrNotFound) {
		fmt.Println("get 0.35 after delete: not found (as it should be)")
	}

	// The paper's experiments run on the simulator: a 2000-peer overlay
	// with every peer allowing 27 links — the paper's baseline setting —
	// and the measurement pass its figures are made of.
	ov, err := oscar.Build(oscar.Config{Size: 2000, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	m := ov.Measure()
	fmt.Printf("simulator: avg search cost %.2f over %d queries; degree volume %.0f%%\n",
		m.AvgSearchCost, m.Queries, 100*m.DegreeVolume)
}
