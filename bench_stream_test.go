// Streaming-read benchmarks: the paged Scan iterator and the chunked blob
// layer. `make bench-stream` runs these once (benchtime=1x) as a CI smoke;
// locally, plain `go test -bench` gives stable numbers.
package oscar

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

// BenchmarkScan streams a populated arc end to end through the paged
// iterator on a 16-node in-memory cluster. The two sizes bracket the page
// machinery: 1k items is a handful of pages, 100k items exercises hundreds
// of cursor hand-offs across shard boundaries.
func BenchmarkScan(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("items=%d", n), func(b *testing.B) {
			ctx := context.Background()
			c, err := StartCluster(ctx, 16, WithSeed(21), WithKeys(UniformKeys()))
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			cl := c.Node(0)
			lo, hi := KeyFromFloat(0.1), KeyFromFloat(0.9)
			val := []byte("v")
			for i := 0; i < n; i++ {
				k := KeyFromFloat(0.1 + 0.8*float64(i)/float64(n))
				if _, err := cl.Put(ctx, k, val); err != nil {
					b.Fatal(err)
				}
			}
			var pages int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc := cl.Scan(ctx, lo, hi)
				count := 0
				for sc.Next() {
					count++
				}
				if err := sc.Err(); err != nil {
					b.Fatal(err)
				}
				if count != n {
					b.Fatalf("scan streamed %d items, want %d", count, n)
				}
				pages = sc.Stats().Pages
			}
			b.StopTimer()
			b.ReportMetric(float64(pages), "pages/op")
			b.ReportMetric(float64(n), "items/op")
		})
	}
}

// BenchmarkBlobRoundTrip writes and streams back a 16 MiB blob through a
// live in-memory cluster: chunking, per-chunk and whole-blob checksums,
// prefetch pipelining, and the paged scan underneath.
func BenchmarkBlobRoundTrip(b *testing.B) {
	ctx := context.Background()
	c, err := StartCluster(ctx, 8, WithSeed(15))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	cl := c.Node(0)
	base := KeyFromFloat(0.35)

	data := make([]byte, 16<<20)
	rand.New(rand.NewSource(99)).Read(data)
	b.SetBytes(int64(len(data)) * 2) // one put + one get per iteration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.PutBlob(ctx, base, bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
		br, err := cl.GetBlob(ctx, base)
		if err != nil {
			b.Fatal(err)
		}
		got, err := io.Copy(io.Discard, br)
		if err != nil {
			b.Fatal(err)
		}
		if got != int64(len(data)) {
			b.Fatalf("streamed %d bytes, want %d", got, len(data))
		}
		if err := br.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
