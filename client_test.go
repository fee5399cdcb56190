package oscar

import (
	"context"
	"testing"
)

// TestClientValuesNotAliased pins the Client ownership rule on the
// in-memory fabric, where nodes hand value slices to each other without
// encoding them: reusing a Put buffer, or writing into a Get or Scan
// result, must never change what the overlay stores. Keys are spread
// around the ring so both the local-owner and the remote-owner paths run,
// and r=3 puts the same value on replica chains too.
func TestClientValuesNotAliased(t *testing.T) {
	ctx := context.Background()
	c, err := StartCluster(ctx, 8, WithSeed(5), WithReplicas(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.Node(0)

	const keys = 8
	key := func(i int) Key { return KeyFromFloat((float64(i) + 0.5) / keys) }
	expectStored := func(when string) {
		t.Helper()
		for i := 0; i < keys; i++ {
			got, err := cl.Get(ctx, key(i))
			if err != nil {
				t.Fatalf("%s: get %d: %v", when, i, err)
			}
			if string(got.Value) != "first" {
				t.Fatalf("%s: key %d reads %q, want %q", when, i, got.Value, "first")
			}
		}
	}

	buf := []byte("first")
	for i := 0; i < keys; i++ {
		if _, err := cl.Put(ctx, key(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	copy(buf, "XXXXX")
	expectStored("after reusing the put buffer")

	for i := 0; i < keys; i++ {
		got, err := cl.Get(ctx, key(i))
		if err != nil {
			t.Fatal(err)
		}
		got.Value[0] = 'Z'
	}
	expectStored("after writing into get results")

	sc := cl.Scan(ctx, key(0), key(keys-1)+1)
	n := 0
	for sc.Next() {
		sc.Item().Value[0] = 'Z'
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != keys {
		t.Fatalf("scan returned %d items, want %d", n, keys)
	}
	expectStored("after writing into scanned items")
}
