// Command perfbench is the repository's benchmark: it boots live Oscar
// clusters in-process through the public API, drives a named workload
// closed-loop from two clients, checks every answer, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics of a traced
// run) as one JSON object on its last line of output. README.md describes
// the workloads and the metrics.
//
//	go run . --workload tcp-zipf-read --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"github.com/oscar-overlay/oscar/internal/transport"
	"github.com/oscar-overlay/oscar/internal/wal"
)

// setupRepeats is how many times an untraced run boots and preloads its
// cluster; setup_s is the median.
const setupRepeats = 3

type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

type report struct {
	workload  string
	attempted int
	failed    int
	metrics   []metric
	// extra holds metrics printed for people only: those not every
	// workload has, and those that are zero when healthy.
	extra []metric
	err   error
}

// metricDef names a metric of the JSON result and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in output order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "ops/s"},
	{"cpu_us_per_op", "us/op"},
	{"get_p50_us", "us"},
	{"put_p50_us", "us"},
	{"heap_live_mb", "MB"},
}

// perLayer lists the metrics of a traced run, in output order. A layer a
// workload does not exercise reads 0.
var perLayer = func() []metricDef {
	out := []metricDef{
		{"p2p.requester_self_us_p50", "us"},
		{"p2p.msgs_per_op", "msgs/op"},
		{"p2p.replica_fanout_us_p50", "us"},
		{"routing.find_owner_per_op", "calls/op"},
		{"routecache.hit_ratio", "ratio"},
		{"hotkey.hit_ratio", "ratio"},
	}
	for _, w := range wireOps {
		out = append(out,
			metricDef{"transport." + string(w) + ".calls_per_op", "calls/op"},
			metricDef{"transport." + string(w) + ".rtt_us_p50", "us"},
			metricDef{"transport." + string(w) + ".rtt_us_p99", "us"},
			metricDef{"transport." + string(w) + ".wire_us_p50", "us"})
	}
	out = append(out, []metricDef{
		{"transport.error_ratio.overloaded", "ratio"},
		{"transport.error_ratio.unreachable", "ratio"},
		{"transport.background_calls_s", "calls/s"},
	}...)
	for _, w := range wireOps {
		out = append(out,
			metricDef{"handler." + string(w) + ".us_p50", "us"},
			metricDef{"handler." + string(w) + ".us_p99", "us"})
	}
	return append(out, []metricDef{
		{"handler.busy_share_max", "ratio"},
		{"storage.max_shard_items", "count"},
		{"storage.insert_us", "us"},
		{"storage.overwrite_us", "us"},
		{"storage.get_us", "us"},
		{"storage.scan_page_us", "us"},
		{"wal.append_us_p50", "us"},
		{"wal.append_us_p99", "us"},
		{"wal.append2_us_p50", "us"},
		{"wal.fsync_append_us_p50", "us"},
		{"wal.fsync_append_us_p99", "us"},
		{"wal.fsync_append2_us_p50", "us"},
		{"wal.snapshots", "count"},
		{"wal.disk_bytes_per_live_byte", "ratio"},
		{"wal.recovery_s", "s"},
		{"antientropy.rounds", "count"},
		{"antientropy.keys_pushed", "count"},
		{"go.allocs_per_op", "allocs/op"},
		{"go.alloc_bytes_per_op", "B/op"},
		{"go.gc_cycles", "count"},
		{"trace.untraced_ops_s", "ops/s"},
		{"trace.traced_ops_s", "ops/s"},
		{"trace.untraced_cpu_us_per_op", "us/op"},
		{"trace.traced_cpu_us_per_op", "us/op"},
	}...)
}()

func main() {
	workload := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed of every key, op-mix and node-placement stream")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()

	var run []spec
	if *workload == "all" {
		run = specs
	} else if s, ok := findSpec(*workload); ok {
		run = []spec{s}
	}
	if len(run) == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>\n")
		os.Exit(2)
	}
	ok := true
	for _, s := range run {
		var rep report
		if *trace == 1 {
			rep = runLayers(s, *seed, *seconds)
		} else {
			rep = runEndToEnd(s, *seed, *seconds)
		}
		if !emit(rep) {
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// runDir is this process's scratch directory inside the working tree.
func runDir() string {
	return filepath.Join(".bench_build", "perfbench-"+strconv.Itoa(os.Getpid()))
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setup boots the workload's cluster and preloads it, recording the
// preload in l (a fresh ledger).
func setup(ctx context.Context, s spec, seed int64, l *ledger, dir string, clock *clock, wrap func(transport.Transport) transport.Transport) (*cluster, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	cl, err := boot(ctx, s, seed, dir, wrap)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	if err := preload(ctx, s, cl, l, clock); err != nil {
		cl.close()
		return nil, err
	}
	return cl, nil
}

// latencyMetrics records each op kind's median and tail latency. Medians
// of gets and puts go to the JSON result; tails and scans, whose spread
// from run to run on a shared host is wider than any bound worth
// enforcing, are printed only.
func latencyMetrics(res clientResult, m map[string]float64, notes map[string]string, rep *report) {
	for k := opKind(0); k < numKinds; k++ {
		s := summarize(res.lat[k])
		name := kindNames[k]
		if k != opScan {
			m[name+"_p50_us"], notes[name+"_p50_us"] = s.p50, fmt.Sprintf("n=%d", s.n)
		} else if s.n > 0 {
			rep.extra = append(rep.extra, metric{name + "_p50_us", s.p50, "us", fmt.Sprintf("n=%d", s.n)})
		}
		if s.n > 0 {
			rep.extra = append(rep.extra, metric{name + "_p99_us", s.tail, "us", fmt.Sprintf("n=%d, p%g", s.n, s.tailPercent)})
		}
	}
}

// listed returns one metric per def, in order, with its value from m (0
// when absent) and its note.
func listed(defs []metricDef, m map[string]float64, notes map[string]string) []metric {
	out := make([]metric, 0, len(defs))
	for _, d := range defs {
		out = append(out, metric{d.name, m[d.name], d.unit, notes[d.name]})
	}
	return out
}

// runEndToEnd is the untraced run: setupRepeats boots, one measured
// window, and the durability check on durable workloads.
func runEndToEnd(s spec, seed int64, seconds int) report {
	rep := report{workload: s.name}
	ctx := context.Background()
	dir := runDir()
	defer os.RemoveAll(dir)
	data := filepath.Join(dir, "data")
	keys := genKeys(s, seed, seconds)
	clock := &clock{epoch: time.Now()}

	var setups []float64
	var cl *cluster
	var l *ledger
	for i := 0; i < setupRepeats; i++ {
		if cl != nil {
			cl.close()
		}
		l = newLedger(uint64(seed), keys)
		runtime.GC()
		start := time.Now()
		var err error
		if cl, err = setup(ctx, s, seed, l, data, clock, nil); err != nil {
			rep.err = err
			return rep
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	runtime.GC()
	cpu0 := cpuTime()
	res, lo, hi := window(ctx, s, seed, cl, l, clock, seconds, false)
	cpu := cpuTime() - cpu0
	done := max(res.attempted-res.failed, 1)

	rep.attempted, rep.failed = res.attempted, res.failed
	m := map[string]float64{
		"setup_s":          median(setups),
		"throughput_ops_s": float64(done) / (float64(hi-lo) / 1e9),
		"cpu_us_per_op":    float64(cpu.Microseconds()) / float64(done),
	}
	notes := map[string]string{
		"setup_s":          fmt.Sprintf("median of %d", setupRepeats),
		"throughput_ops_s": fmt.Sprintf("%d ops in %.2fs", done, float64(hi-lo)/1e9),
		"heap_live_mb":     "after a forced GC",
	}
	latencyMetrics(res, m, notes, &rep)
	// The live heap is read once the window's latency samples are
	// released, so that it counts the cluster and the fixed-size ledger
	// but not how many ops the window happened to complete.
	res.lat = [numKinds][]float64{}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["heap_live_mb"] = float64(ms.HeapAlloc) / 1e6
	rep.metrics = listed(endToEnd, m, notes)
	rep.extra = append(rep.extra, metric{"failed_ratio", float64(res.failed) / float64(max(res.attempted, 1)), "ratio", ""})
	rep.err = res.violation
	if rep.err != nil {
		cl.close()
		return rep
	}
	if s.durable() {
		took, err := crashAndRecover(ctx, s, seed, cl, l, data)
		rep.err = err
		rep.extra = append(rep.extra, metric{"recovery_s", took.Seconds(), "s", "restart from a crash image"})
		return rep
	}
	cl.close()
	return rep
}

// runLayers is the traced run: one untraced window for the Go runtime
// counters and the tracing-overhead baseline, then a traced window on a
// fresh cluster whose spans give the per-layer metrics, then the
// standalone storage and WAL timings.
func runLayers(s spec, seed int64, seconds int) report {
	rep := report{workload: s.name}
	m := make(map[string]float64)
	ctx := context.Background()
	dir := runDir()
	defer os.RemoveAll(dir)
	data := filepath.Join(dir, "data")
	keys := genKeys(s, seed, seconds)
	clock := &clock{epoch: time.Now()}

	l := newLedger(uint64(seed), keys)
	cl, err := setup(ctx, s, seed, l, data, clock, nil)
	if err != nil {
		rep.err = err
		return rep
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	res, lo, hi := window(ctx, s, seed, cl, l, clock, seconds, false)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	cl.close()
	rep.attempted, rep.failed = res.attempted, res.failed
	if rep.err = res.violation; rep.err != nil {
		return rep
	}
	done := float64(max(res.attempted-res.failed, 1))
	m["go.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / done
	m["go.alloc_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / done
	m["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["trace.untraced_ops_s"] = done / (float64(hi-lo) / 1e9)
	m["trace.untraced_cpu_us_per_op"] = float64(cpu.Microseconds()) / done

	tr := newTracer(clock)
	l = newLedger(uint64(seed), keys)
	runtime.GC()
	if cl, err = setup(ctx, s, seed, l, data, clock, tr.wrap); err != nil {
		rep.err = err
		return rep
	}
	before, err := readInfo(ctx, cl)
	if err != nil {
		cl.close()
		rep.err = err
		return rep
	}
	var snaps *snapshotWatch
	if s.durable() {
		snaps = watchSnapshots(data, s.nodes)
	}
	runtime.GC()
	tr.on.Store(true)
	cpu0 = cpuTime()
	res, lo, hi = window(ctx, s, seed, cl, l, clock, seconds, true)
	cpu = cpuTime() - cpu0
	tr.on.Store(false)
	if snaps != nil {
		m["wal.snapshots"] = float64(snaps.finish())
	}
	rep.attempted += res.attempted
	rep.failed += res.failed
	if rep.err = res.violation; rep.err != nil {
		cl.close()
		return rep
	}
	done = float64(max(res.attempted-res.failed, 1))
	m["trace.traced_ops_s"] = done / (float64(hi-lo) / 1e9)
	m["trace.traced_cpu_us_per_op"] = float64(cpu.Microseconds()) / done
	after, err := readInfo(ctx, cl)
	if err != nil {
		cl.close()
		rep.err = err
		return rep
	}
	infoMetrics(before, after, m)
	calls, handlers, busy := tr.spans()
	layerMetrics(res.spans, calls, handlers, busy, lo, hi, m)
	storageMetrics(seed, after.maxShard, m)

	if s.durable() {
		if disk, err := dirBytes(data); err == nil && after.liveItems > 0 {
			m["wal.disk_bytes_per_live_byte"] = float64(disk) / float64(after.liveItems*(8+valueSize))
		}
		took, err := crashAndRecover(ctx, s, seed, cl, l, data)
		if err != nil {
			rep.err = err
			return rep
		}
		m["wal.recovery_s"] = took.Seconds()
		policy, err := wal.ParsePolicy(s.fsync)
		if err == nil {
			err = walMetrics(filepath.Join(dir, "walprobe"), policy, "", m)
		}
		if err == nil {
			err = walMetrics(filepath.Join(dir, "walprobe"), wal.PolicyAlways, "fsync_", m)
		}
		if rep.err = err; err != nil {
			return rep
		}
	} else {
		cl.close()
	}
	rep.metrics = listed(perLayer, m, nil)
	return rep
}

// emit writes the report for people, then the JSON result line. It
// returns whether the run was correct.
func emit(rep report) bool {
	fmt.Printf("== %s\n", rep.workload)
	if rep.err != nil {
		fmt.Printf("FAILED: %v\n", rep.err)
	}
	fmt.Printf("  %-40s %d\n  %-40s %d\n", "attempted", rep.attempted, "failed", rep.failed)
	for _, m := range append(rep.metrics, rep.extra...) {
		fmt.Printf("  %-40s %14.4f %-9s %s\n", m.name, m.value, m.unit, m.note)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.err == nil, max(rep.attempted, 1), rep.failed, make(map[string]value)}
	for _, m := range rep.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, _ := json.Marshal(out) // plain structs of numbers and strings cannot fail
	fmt.Println(string(line))
	return rep.err == nil
}
