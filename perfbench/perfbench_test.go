package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/transport"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n          int
		wantPct    float64
		wantValue  float64
		wantBeyond int
	}{
		{n: 2000, wantPct: 99, wantValue: 1980, wantBeyond: 20},
		{n: 1000, wantPct: 99, wantValue: 990, wantBeyond: 10},
		{n: 999, wantPct: 98, wantValue: 980, wantBeyond: 19},
		{n: 500, wantPct: 98, wantValue: 490, wantBeyond: 10},
		{n: 15, wantPct: 50, wantValue: 8, wantBeyond: 7},
	} {
		s := summarize(seq(tc.n))
		if s.n != tc.n || s.tailPercent != tc.wantPct || s.tail != tc.wantValue {
			t.Errorf("n=%d: got n=%d p%g=%g, want p%g=%g", tc.n, s.n, s.tailPercent, s.tail, tc.wantPct, tc.wantValue)
		}
		if beyond := tc.n - int(s.tail); beyond != tc.wantBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, tc.wantBeyond)
		}
	}
	if s := summarize(nil); s.n != 0 || s.p50 != 0 || s.tail != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	if got := summarize(seq(101)).p50; got != 51 {
		t.Errorf("median of 1..101 = %g, want 51", got)
	}
}

func TestSelfTimeIntervalUnion(t *testing.T) {
	for _, tc := range []struct {
		name string
		ivs  []interval
		want int64
	}{
		{"none", nil, 0},
		{"disjoint", []interval{{10, 20}, {30, 40}}, 20},
		{"overlapping concurrent calls count once", []interval{{10, 30}, {20, 40}}, 30},
		{"nested", []interval{{10, 50}, {20, 30}}, 40},
		{"unsorted", []interval{{60, 70}, {10, 20}, {15, 25}}, 25},
		{"clipped to the parent span", []interval{{-10, 5}, {95, 200}}, 10},
		{"outside the parent span", []interval{{-20, -10}, {100, 120}}, 0},
	} {
		if got := covered(tc.ivs, 0, 100); got != tc.want {
			t.Errorf("%s: covered = %d, want %d", tc.name, got, tc.want)
		}
	}
	// A 100ns op with two overlapping 30ns replica calls and a disjoint
	// 10ns lookup spends 100-40-10 = 50ns in itself.
	ops := []opSpan{{id: 7, kind: opPut, start: 0, end: 100, cost: 3}}
	calls := []callSpan{
		{op: codeOf(transport.OpFindOwner), start: 0, end: 10, opID: 7},
		{op: codeOf(transport.OpReplicate), start: 50, end: 80, opID: 7},
		{op: codeOf(transport.OpReplicate), start: 60, end: 90, opID: 7},
		{op: codeOf(transport.OpPing), start: 20, end: 30},
	}
	m := make(map[string]float64)
	layerMetrics(ops, calls, nil, []int64{300, 600}, 0, 1000, m)
	if got := m["p2p.requester_self_us_p50"]; got != 0.05 {
		t.Errorf("self time = %gus, want 0.05", got)
	}
	if got := m["p2p.replica_fanout_us_p50"]; got != 0.04 {
		t.Errorf("replica fanout = %gus, want 0.04", got)
	}
	if got := m["routing.find_owner_per_op"]; got != 1 {
		t.Errorf("find_owner per op = %g, want 1", got)
	}
	if got := m["handler.busy_share_max"]; got != 0.6 {
		t.Errorf("busiest node share = %g, want 0.6", got)
	}
}

func TestWireTimesLinkCallsToTheirRuns(t *testing.T) {
	get := codeOf(transport.OpGet)
	handlers := []handlerSpan{
		{op: get, at: 1, key: 5, start: 32, end: 36},
		{op: get, at: 1, key: 5, start: 12, end: 15},
		{op: get, at: 2, key: 5, start: 13, end: 14},
		{op: get, at: 1, key: 6, start: 52, end: 53},
	}
	calls := []callSpan{
		{op: get, to: 1, key: 5, start: 30, end: 40, opID: 1},
		{op: get, to: 1, key: 5, start: 10, end: 20, opID: 2},
		// Served by no recorded run: a run of another key does not count.
		{op: get, to: 1, key: 7, start: 50, end: 60, opID: 3},
		// Background calls are not client ops.
		{op: get, to: 2, key: 5, start: 12, end: 16},
	}
	got := wireTimes(calls, handlers)[get]
	sort.Float64s(got)
	if len(got) != 2 || got[0] != 0.006 || got[1] != 0.007 {
		t.Errorf("wire times = %v, want [0.006 0.007] (call minus its own run)", got)
	}
}

func newTestLedger(t *testing.T) *ledger {
	t.Helper()
	keys := []keyspace.Key{100, 200, 300, 400, 500, 600}
	l := newLedger(42, keys)
	for idx := range keys {
		ver, _ := l.issue(idx)
		l.ack(idx, ver, true, 1)
	}
	return l
}

func TestCheckerCatchesStaleValue(t *testing.T) {
	l := newTestLedger(t)
	ver, fresh := l.issue(2) // key 300 belongs to client 0
	l.ack(2, ver, true, 2)
	stale := make([]byte, valueSize)
	encodeValue(stale, l.seed, l.keys[2], ver-1)

	if err := l.checkRead(0, 2, fresh); err != nil {
		t.Fatalf("fresh value rejected: %v", err)
	}
	if err := l.checkRead(0, 2, stale); err == nil {
		t.Fatal("stale value on the writer's own stripe accepted")
	}
	// Another client may see either version, but never one not issued.
	if err := l.checkRead(1, 2, stale); err != nil {
		t.Fatalf("older issued value rejected for a foreign stripe: %v", err)
	}
	future := make([]byte, valueSize)
	encodeValue(future, l.seed, l.keys[2], ver+1)
	if err := l.checkRead(1, 2, future); err == nil {
		t.Fatal("never-issued version accepted")
	}
	corrupt := append([]byte(nil), fresh...)
	corrupt[valueSize-1] ^= 1
	if err := l.checkRead(0, 2, corrupt); err == nil {
		t.Fatal("corrupt value accepted")
	}
	if err := l.checkRead(0, 3, fresh); err == nil {
		t.Fatal("another key's value accepted")
	}
	// A failed put leaves the key uncertain: either version may read back.
	ver2, failed := l.issue(2)
	l.ack(2, ver2, false, 3)
	if err := l.checkRead(0, 2, failed); err != nil {
		t.Fatalf("value of a put that may have landed rejected: %v", err)
	}
	if err := l.checkRead(0, 2, fresh); err != nil {
		t.Fatalf("last acknowledged value rejected after a failed put: %v", err)
	}
}

func TestCheckScan(t *testing.T) {
	l := newTestLedger(t)
	val := func(idx int) []byte {
		v := make([]byte, valueSize)
		encodeValue(v, l.seed, l.keys[idx], 1)
		return v
	}
	scan := func(idxs ...int) []item {
		var out []item
		for _, i := range idxs {
			out = append(out, item{key: l.keys[i], value: val(i)})
		}
		return out
	}
	// A wrapping scan from 450 returns 500, 600, then 100...
	const from, to = keyspace.Key(450), keyspace.Key(449)
	if err := l.checkScan(0, from, to, scan(4, 5, 0, 1, 2, 3), 10); err != nil {
		t.Fatalf("complete clockwise scan rejected: %v", err)
	}
	for name, items := range map[string][]item{
		"skipped key":  scan(4, 0, 1, 2, 3),
		"out of order": scan(5, 4, 0, 1, 2, 3),
		"duplicate":    scan(4, 5, 5, 0, 1, 2, 3),
	} {
		if err := l.checkScan(0, from, to, items, 10); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if err := l.checkScan(0, from, 350, scan(4, 5, 0, 1, 2, 3), 10); err == nil {
		t.Error("item outside the scanned range accepted")
	}
	// A key acknowledged after the scan began may be missing.
	l.ackedAt[5].Store(20)
	if err := l.checkScan(0, from, to, scan(4, 0, 1, 2, 3), 10); err != nil {
		t.Errorf("scan missing a key acknowledged after it began rejected: %v", err)
	}
}

// TestBenchmarkManifest keeps BENCHMARK.json and the metrics the code
// emits in step.
func TestBenchmarkManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bm.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, s := range specs {
		want = append(want, s.name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, code has %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, code emits %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s %s, code emits %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bm.EndToEnd, endToEnd)
	check("per_layer", bm.PerLayer, perLayer)
}
