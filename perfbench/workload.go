package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	oscar "github.com/oscar-overlay/oscar"
	"github.com/oscar-overlay/oscar/internal/keydist"
	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/rng"
	"github.com/oscar-overlay/oscar/internal/transport"
	"github.com/oscar-overlay/oscar/internal/wal"
)

// clients is the number of closed-loop client goroutines: each waits for
// its reply before sending the next op, like a key-value client library.
const clients = 2

type opKind int

const (
	opGet opKind = iota
	opPut
	opScan
	numKinds
)

var kindNames = [numKinds]string{"get", "put", "scan"}

// spec is one workload. Every cluster uses the paper's heterogeneous link
// budgets (RealisticDegrees) and places nodes and data keys with the
// Gnutella-like key distribution, as the data-oriented overlay intends.
// README.md records why each workload exists and which layers it stresses.
type spec struct {
	name  string
	tcp   bool
	nodes int
	keys  int
	// get and put are the shares of the op mix; the rest are scans.
	get, put float64
	// insert makes puts write new keys; otherwise a put overwrites a key
	// of the client's own stripe.
	insert bool
	// zipf is the Zipf exponent over key ranks (0: uniform).
	zipf float64
	// fsync, when set, makes the cluster durable: a data dir per node
	// with this WAL fsync policy, write concern 3, auto-maintenance and
	// periodic anti-entropy.
	fsync string
	// opsPerSecond, when set, makes the window a fixed op count of
	// opsPerSecond × seconds, so the key count at its end does not depend
	// on how fast the cluster is.
	opsPerSecond int
}

var specs = []spec{
	{name: "tcp-zipf-read", tcp: true, nodes: 8, keys: 4096, get: 0.9, put: 0.1, zipf: 1.1},
	{name: "mem-uniform-insert", nodes: 16, keys: 100_000, get: 0.45, put: 0.5, insert: true, opsPerSecond: 30_000},
	{name: "mem-durable-overwrite", nodes: 4, keys: 10_000, get: 0.45, put: 0.5, fsync: "interval"},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func (s spec) durable() bool { return s.fsync != "" }

// fixedOps is the window's op count per client, or 0 for a timed window.
func (s spec) fixedOps(seconds int) int {
	return s.opsPerSecond * seconds / clients
}

// genKeys draws the workload's data keys from the Gnutella-like
// distribution: the preloaded keys first, then (insert workloads) the keys
// each client will insert, client c's i-th insert at index
// keys + i*clients + c so that stripes hold.
func genKeys(s spec, seed int64, seconds int) []keyspace.Key {
	n := s.keys
	if s.insert {
		n += clients * s.fixedOps(seconds)
	}
	dist := oscar.GnutellaKeys()
	r := rng.Derive(seed, "perfbench-keys")
	seen := make(map[keyspace.Key]bool, n)
	keys := make([]keyspace.Key, 0, n)
	for len(keys) < n {
		k := dist.Sample(r)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// stratified places the n nodes of a cluster where the data is, as the
// data-oriented overlay intends: node i sits at the (i+u)/n quantile of
// the data's key distribution, with one offset u in [0,1) drawn from the
// seed. Every node's arc then holds 1/n of the data's probability mass, so
// a run's numbers depend on the seed through the keys, the link budgets and
// the op stream, not on an accidental node that owns a double share.
type stratified struct {
	base keydist.Distribution
	n    int
	next int
	u    float64
}

func newStratified(n int) *stratified { return &stratified{base: oscar.GnutellaKeys(), n: n} }

func (s *stratified) Name() string { return "stratified-" + s.base.Name() }

func (s *stratified) Sample(r *rand.Rand) keyspace.Key {
	if s.next == 0 {
		s.u = r.Float64()
	}
	q := (float64(s.next%s.n) + s.u) / float64(s.n)
	s.next++
	return keydist.Quantile(s.base, q)
}

func (s *stratified) CDF(x float64) float64 { return s.base.CDF(x) }

// cluster is one booted overlay: the in-memory fabric's Cluster or a set
// of loopback TCP nodes.
type cluster struct {
	nodes []*oscar.Node
	mem   *oscar.Cluster
}

func (c *cluster) close() {
	if c.mem != nil {
		_ = c.mem.Close()
		return
	}
	for _, n := range c.nodes {
		_ = n.Close()
	}
}

// entry is client c's own entry node.
func (c *cluster) entry(i int) *oscar.Node { return c.nodes[i*len(c.nodes)/clients] }

// boot starts the workload's cluster; dir is the data-dir root of durable
// workloads and wrap the optional transport wrapper of a traced run.
func boot(ctx context.Context, s spec, seed int64, dir string, wrap func(transport.Transport) transport.Transport) (*cluster, error) {
	if s.tcp {
		return bootTCP(ctx, s, seed, wrap)
	}
	opts := []oscar.Option{
		oscar.WithSeed(seed),
		oscar.WithKeys(newStratified(s.nodes)),
		oscar.WithDegrees(oscar.RealisticDegrees()),
		oscar.WithReplicas(3),
	}
	if s.durable() {
		opts = append(opts,
			oscar.WithWriteConcern(3),
			oscar.WithDataDir(dir),
			oscar.WithFsync(s.fsync),
			oscar.WithAutoMaintenance(2*time.Second),
			oscar.WithAntiEntropy(5*time.Second))
	}
	if wrap != nil {
		opts = append(opts, oscar.WithTransportWrapper(wrap))
	}
	mc, err := oscar.StartCluster(ctx, s.nodes, opts...)
	if err != nil {
		return nil, err
	}
	return &cluster{nodes: mc.Nodes(), mem: mc}, nil
}

// bootTCP mirrors StartCluster on loopback TCP listeners with the binary
// codec: join through the first node, two stabilisation rounds, one
// rewiring pass.
func bootTCP(ctx context.Context, s spec, seed int64, wrap func(transport.Transport) transport.Transport) (*cluster, error) {
	keys, degrees := newStratified(s.nodes), oscar.RealisticDegrees()
	keyRand, capRand := rng.Derive(seed, "perfbench-node-keys"), rng.Derive(seed, "perfbench-node-caps")
	c := &cluster{}
	for i := 0; i < s.nodes; i++ {
		caps := degrees.Sample(capRand)
		n, err := oscar.StartNode(oscar.NodeConfig{
			Listen:        "127.0.0.1:0",
			Key:           keys.Sample(keyRand),
			MaxIn:         caps,
			MaxOut:        caps,
			Seed:          seed + int64(i),
			Replicas:      3,
			Codec:         "binary",
			WrapTransport: wrap,
		})
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		if i > 0 {
			if err := n.Join(ctx, c.nodes[0].Addr()); err != nil {
				c.close()
				return nil, fmt.Errorf("node %d join: %w", i, err)
			}
		}
	}
	parallel := func(fn func(*oscar.Node)) {
		var wg sync.WaitGroup
		for _, n := range c.nodes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn(n)
			}()
		}
		wg.Wait()
	}
	for round := 0; round < 2; round++ {
		parallel(func(n *oscar.Node) { n.Stabilize(ctx) })
	}
	parallel(func(n *oscar.Node) { _ = n.Rewire(ctx) })
	return c, ctx.Err()
}

// preloaders is the number of goroutines loading the initial keys.
const preloaders = 8

// preload writes version 1 of every initial key, spread over the entry
// nodes.
func preload(ctx context.Context, s spec, c *cluster, l *ledger, clock *clock) error {
	errs := make(chan error, preloaders)
	var wg sync.WaitGroup
	for g := 0; g < preloaders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			node := c.nodes[g%len(c.nodes)]
			for idx := g; idx < s.keys; idx += preloaders {
				ver, val := l.issue(idx)
				if _, err := node.Put(ctx, l.keys[idx], val); err != nil {
					errs <- fmt.Errorf("preload %v: %w", l.keys[idx], err)
					return
				}
				l.ack(idx, ver, true, clock.now())
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// opSpan is one client op of a traced window.
type opSpan struct {
	id         uint64
	kind       opKind
	start, end int64
	cost       int
}

// clientResult is what one client measured in a window.
type clientResult struct {
	lat       [numKinds][]float64 // µs, successful and correct ops only
	attempted int
	failed    int
	spans     []opSpan
	violation error
}

// driftOps is how many ops a client's Zipf ranking of keys lasts.
const driftOps = 4096

// opIDKey carries a traced op's id in the context handed to the client
// API; the overlay forwards that context to every outbound call it makes.
// Ops that are not sampled carry notSampled, so their calls are neither
// recorded nor mistaken for background traffic.
type opIDKey struct{}

// traceEvery samples one op in this many per client for tracing: a traced
// window of the insert workload makes millions of calls, and recording
// every one would make the trace, not the cluster, the run's memory.
const traceEvery = 8

const notSampled = ^uint64(0)

// drive runs client c closed-loop against its entry node until deadline
// (or for fixed ops when fixed > 0). In a traced window every traceEvery-th
// op carries an id in its context and is recorded as a span.
func drive(ctx context.Context, s spec, seed int64, c int, node *oscar.Node, l *ledger, clock *clock, deadline time.Time, fixed int, traced bool) clientResult {
	var res clientResult
	r := rng.DeriveN(seed, "perfbench-client", c)
	unsampledCtx := context.WithValue(ctx, opIDKey{}, notSampled)
	var zipf *rand.Zipf
	if s.zipf > 0 {
		zipf = rand.NewZipf(r, s.zipf, 1, uint64(s.keys-1))
	}
	// hot maps a Zipf rank to a key index. Popularity drifts: every
	// driftOps ops the client's ranking moves to other keys, so a run
	// samples many hot sets and the result does not hinge on whether the
	// few hottest keys happen to live on the client's entry node.
	shift := 0
	hot := func() int { return (int(zipf.Uint64()) + shift) % s.keys }
	inserted := 0
	for seq := uint64(1); ; seq++ {
		if fixed > 0 {
			if res.attempted == fixed {
				break
			}
		} else if !time.Now().Before(deadline) {
			break
		}
		if zipf != nil && (seq-1)%driftOps == 0 {
			shift = r.Intn(s.keys)
		}
		opCtx, sampled := ctx, traced && seq%traceEvery == 0
		if sampled {
			opCtx = context.WithValue(ctx, opIDKey{}, uint64(c+1)<<40|seq)
		} else if traced {
			opCtx = unsampledCtx
		}
		kind := opScan
		if u := r.Float64(); u < s.get {
			kind = opGet
		} else if u < s.get+s.put {
			kind = opPut
		}
		res.attempted++
		start := clock.now()
		var (
			cost int
			err  error
			bad  error
		)
		switch kind {
		case opGet:
			var idx int
			switch {
			case zipf != nil:
				idx = hot()
			case s.insert:
				if j := r.Intn(s.keys + inserted); j < s.keys {
					idx = j
				} else {
					idx = s.keys + (j-s.keys)*clients + c
				}
			default:
				idx = r.Intn(s.keys)
			}
			var got oscar.GetResponse
			got, err = node.Get(opCtx, l.keys[idx])
			cost = got.Cost
			if errors.Is(err, oscar.ErrNotFound) {
				bad = fmt.Errorf("get %v: not found", l.keys[idx])
			} else if err == nil {
				bad = l.checkRead(c, idx, got.Value)
			}
		case opPut:
			var idx int
			switch {
			case s.insert:
				idx = s.keys + inserted*clients + c
				inserted++
			case zipf != nil:
				idx = hot()
				idx += c - idx%clients
				if idx >= s.keys {
					idx -= clients
				}
			default:
				idx = r.Intn(s.keys/clients)*clients + c
			}
			ver, val := l.issue(idx)
			var put oscar.PutResponse
			put, err = node.Put(opCtx, l.keys[idx], val)
			cost = put.Cost
			l.ack(idx, ver, err == nil, clock.now())
		case opScan:
			from := l.keys[r.Intn(s.keys)]
			to := from - 1
			sc := node.Scan(opCtx, from, to, oscar.WithLimit(scanLimit))
			var items []item
			for sc.Next() {
				it := sc.Item()
				items = append(items, item{key: it.Key, value: it.Value})
			}
			cost, err = sc.Stats().Cost, sc.Err()
			if err == nil {
				bad = l.checkScan(c, from, to, items, start)
			}
		}
		end := clock.now()
		if bad != nil {
			res.violation = fmt.Errorf("client %d: %w", c, bad)
			return res
		}
		if err != nil {
			res.failed++
			continue
		}
		res.lat[kind] = append(res.lat[kind], float64(end-start)/1e3)
		if sampled {
			res.spans = append(res.spans, opSpan{id: uint64(c+1)<<40 | seq, kind: kind, start: start, end: end, cost: cost})
		}
	}
	return res
}

// window runs all clients for one measured window and merges their
// results. It returns the window's bounds on the benchmark clock.
func window(ctx context.Context, s spec, seed int64, cl *cluster, l *ledger, clock *clock, seconds int, traced bool) (res clientResult, lo, hi int64) {
	results := make([]clientResult, clients)
	lo = clock.now()
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[c] = drive(ctx, s, seed, c, cl.entry(c), l, clock, deadline, s.fixedOps(seconds), traced)
		}()
	}
	wg.Wait()
	hi = clock.now()
	for _, r := range results {
		for k := range r.lat {
			res.lat[k] = append(res.lat[k], r.lat[k]...)
		}
		res.attempted += r.attempted
		res.failed += r.failed
		res.spans = append(res.spans, r.spans...)
		if res.violation == nil {
			res.violation = r.violation
		}
	}
	return res, lo, hi
}

// clock stamps events in nanoseconds since the benchmark started, from the
// monotonic clock.
type clock struct{ epoch time.Time }

func (c *clock) now() int64 { return int64(time.Since(c.epoch)) + 1 }

// crashAndRecover checks durability: once the clients have stopped, it
// takes the image a crash would leave (maintenance stopped, every acked
// write already fsynced, no final snapshot and no clean-shutdown marker),
// closes the cluster, restarts a cluster on that image and reads every key
// back. It returns the restart time.
func crashAndRecover(ctx context.Context, s spec, seed int64, cl *cluster, l *ledger, dir string) (time.Duration, error) {
	for _, n := range cl.nodes {
		n.StopMaintenance()
	}
	time.Sleep(3 * wal.DefaultFsyncInterval)
	image := dir + "-crash"
	if err := copyTree(dir, image); err != nil {
		cl.close()
		return 0, fmt.Errorf("crash image: %w", err)
	}
	cl.close()
	defer os.RemoveAll(image)
	start := time.Now()
	rc, err := boot(ctx, s, seed, image, nil)
	if err != nil {
		return 0, fmt.Errorf("restart: %w", err)
	}
	took := time.Since(start)
	defer rc.close()
	for i, n := range rc.nodes {
		if rec := n.Recovery(); !rec.Enabled || rec.Clean {
			return took, fmt.Errorf("node %d restarted with %+v, want crash recovery", i, rec)
		}
	}
	for idx := range l.keys {
		if l.issued[idx].Load() == 0 {
			continue
		}
		got, err := rc.nodes[idx%len(rc.nodes)].Get(ctx, l.keys[idx])
		if err != nil {
			return took, fmt.Errorf("after restart: get %v: %w", l.keys[idx], err)
		}
		ver, err := decodeValue(got.Value, l.seed, l.keys[idx])
		if err == nil {
			err = l.checkOwn(idx, ver)
		}
		if err != nil {
			return took, fmt.Errorf("after restart: %w", err)
		}
	}
	return took, nil
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, data, 0o644)
	})
}
