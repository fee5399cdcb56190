package wal

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/storage"
)

func put(k uint64, v string) Record {
	return Record{Store: StorePrimary, Mut: storage.Mutation{Op: storage.MutPut, Key: keyspace.Key(k), Value: []byte(v)}}
}

func tomb(k uint64, at int64) Record {
	return Record{Store: StorePrimary, Mut: storage.Mutation{Op: storage.MutTombstone, Key: keyspace.Key(k), At: at}}
}

func mustOpen(t *testing.T, dir string, p Policy) (*Engine, *Recovered) {
	t.Helper()
	e, rec, err := Open(Options{Dir: dir, Policy: p})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return e, rec
}

func sameStore(t *testing.T, want, got *storage.Store, label string) {
	t.Helper()
	if !reflect.DeepEqual(want.Items(), got.Items()) {
		t.Fatalf("%s: items diverge: want %v got %v", label, want.Items(), got.Items())
	}
	if !reflect.DeepEqual(want.Tombstones(), got.Tombstones()) {
		t.Fatalf("%s: tombstones diverge: want %v got %v", label, want.Tombstones(), got.Tombstones())
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e, rec := mustOpen(t, dir, PolicyAlways)
	if rec.HasState() || rec.Clean || rec.Replayed != 0 {
		t.Fatalf("fresh dir should recover empty, got %+v", rec)
	}
	want := &storage.Store{}
	for i := 0; i < 50; i++ {
		r := put(uint64(i), fmt.Sprintf("v%d", i))
		want.ApplyMutation(r.Mut)
		if err := e.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	want.ApplyMutation(tomb(7, 123).Mut)
	if err := e.Append(tomb(7, 123)); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, rec2 := mustOpen(t, dir, PolicyAlways)
	defer e2.Close()
	if rec2.Clean {
		t.Fatal("no clean marker was written; Clean should be false")
	}
	if rec2.Replayed != 51 {
		t.Fatalf("Replayed = %d, want 51", rec2.Replayed)
	}
	sameStore(t, want, rec2.Primary, "after replay")
	// Post-recovery compaction folded the log into a snapshot.
	if st := e2.Stats(); st.WALBytes != 0 || st.Frames != 0 || st.LastSnapshot == 0 {
		t.Fatalf("expected compacted state after recovery, got %+v", st)
	}
}

func TestTornFinalFrame(t *testing.T) {
	dir := t.TempDir()
	e, _ := mustOpen(t, dir, PolicyAlways)
	for i := 0; i < 10; i++ {
		if err := e.Append(put(uint64(i), "x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a frame header promising more bytes
	// than the file holds.
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{200, 0, 0, 0, 1, 2, 3, 4, 9, 9}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	e2, rec := mustOpen(t, dir, PolicyAlways)
	defer e2.Close()
	if !rec.TornTail {
		t.Fatal("expected TornTail")
	}
	if rec.Replayed != 10 || rec.Primary.Len() != 10 {
		t.Fatalf("intact prefix lost: replayed %d, %d items", rec.Replayed, rec.Primary.Len())
	}
}

func TestCorruptCRCMidLog(t *testing.T) {
	dir := t.TempDir()
	e, _ := mustOpen(t, dir, PolicyAlways)
	var offsets []int64
	for i := 0; i < 10; i++ {
		if err := e.Append(put(uint64(i), "payload")); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, e.Stats().WALBytes)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte inside frame 5 (offsets[3] is where frame 4
	// ends, i.e. frame 5 starts).
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xAA}, offsets[3]+10); err != nil {
		t.Fatal(err)
	}
	f.Close()

	e2, rec := mustOpen(t, dir, PolicyAlways)
	defer e2.Close()
	if !rec.TornTail {
		t.Fatal("mid-log corruption should be reported as a torn tail")
	}
	// Everything before the damaged frame survives; nothing after it
	// can be trusted.
	if rec.Replayed != 4 || rec.Primary.Len() != 4 {
		t.Fatalf("want the 4-frame intact prefix, got replayed=%d items=%d", rec.Replayed, rec.Primary.Len())
	}
}

func TestEmptyWALStaleSnapshot(t *testing.T) {
	dir := t.TempDir()
	e, _ := mustOpen(t, dir, PolicyAlways)
	for i := 0; i < 5; i++ {
		if err := e.Append(put(uint64(i), "v")); err != nil {
			t.Fatal(err)
		}
	}
	want := &storage.Store{}
	for i := 0; i < 5; i++ {
		want.ApplyMutation(put(uint64(i), "v").Mut)
	}
	if err := e.Snapshot(want, &storage.Store{}, 42); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// wal.log is now empty; only the snapshot holds state.
	if fi, err := os.Stat(filepath.Join(dir, walFile)); err != nil || fi.Size() != 0 {
		t.Fatalf("log not truncated by snapshot: %v %v", fi, err)
	}

	e2, rec := mustOpen(t, dir, PolicyAlways)
	defer e2.Close()
	if rec.SnapshotAt != 42 || rec.Replayed != 0 || rec.TornTail {
		t.Fatalf("want pure snapshot recovery, got %+v", rec)
	}
	sameStore(t, want, rec.Primary, "snapshot-only recovery")
}

func TestInterruptedSnapshotWrite(t *testing.T) {
	dir := t.TempDir()
	e, _ := mustOpen(t, dir, PolicyAlways)
	if err := e.Append(put(1, "good")); err != nil {
		t.Fatal(err)
	}
	s := &storage.Store{}
	s.ApplyMutation(put(1, "good").Mut)
	if err := e.Snapshot(s, &storage.Store{}, 7); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash mid-snapshot leaves a half-written temp file; the
	// committed snapshot must win and the temp file must be discarded.
	if err := os.WriteFile(filepath.Join(dir, snapTempFile), []byte("half-written garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	e2, rec := mustOpen(t, dir, PolicyAlways)
	defer e2.Close()
	if rec.SnapshotAt != 7 {
		t.Fatalf("want committed snapshot (savedAt 7), got %d", rec.SnapshotAt)
	}
	if v, ok := rec.Primary.Get(1); !ok || string(v) != "good" {
		t.Fatalf("lost committed state: %q %v", v, ok)
	}
	if _, err := os.Stat(filepath.Join(dir, snapTempFile)); !os.IsNotExist(err) {
		t.Fatalf("stale snapshot.tmp not discarded: %v", err)
	}
}

func TestReplayIdempotence(t *testing.T) {
	// The mutation set must satisfy apply(apply(S, L), L) == apply(S, L):
	// recovery may replay frames whose effects a snapshot already holds.
	recs := []Record{
		put(1, "a"), put(2, "b"), tomb(1, 10), put(3, "c"),
		{Store: StorePrimary, Mut: storage.Mutation{Op: storage.MutDrop, Key: 2}},
		put(2, "b2"), tomb(4, 5),
		{Store: StorePrimary, Mut: storage.Mutation{Op: storage.MutGC, At: 6}},
		{Store: StorePrimary, Mut: storage.Mutation{Op: storage.MutRemoveItem, Key: 3}},
		{Store: StorePrimary, Mut: storage.Mutation{Op: storage.MutRemoveTomb, Key: 1}},
	}
	once, twice := &storage.Store{}, &storage.Store{}
	for _, r := range recs {
		once.ApplyMutation(r.Mut)
	}
	for i := 0; i < 2; i++ {
		for _, r := range recs {
			twice.ApplyMutation(r.Mut)
		}
	}
	sameStore(t, once, twice, "double replay")
}

func TestCleanMarkerConsumed(t *testing.T) {
	dir := t.TempDir()
	e, _ := mustOpen(t, dir, PolicyAlways)
	if err := e.MarkClean(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, rec := mustOpen(t, dir, PolicyAlways)
	if !rec.Clean {
		t.Fatal("clean marker not observed")
	}
	if err := e2.Close(); err != nil { // closes without MarkClean: a crash
		t.Fatal(err)
	}
	e3, rec3 := mustOpen(t, dir, PolicyAlways)
	defer e3.Close()
	if rec3.Clean {
		t.Fatal("clean marker must be consumed on read")
	}
}

func TestReplicaStoreRecovered(t *testing.T) {
	dir := t.TempDir()
	e, _ := mustOpen(t, dir, PolicyAlways)
	recs := []Record{
		put(1, "mine"),
		{Store: StoreReplica, Mut: storage.Mutation{Op: storage.MutPut, Key: 9, Value: []byte("theirs")}},
		{Store: StoreReplica, Mut: storage.Mutation{Op: storage.MutTombstone, Key: 8, At: 3}},
	}
	for _, r := range recs {
		if err := e.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, rec := mustOpen(t, dir, PolicyAlways)
	defer e2.Close()
	if v, ok := rec.Replica.Get(9); !ok || string(v) != "theirs" {
		t.Fatalf("replica item lost: %q %v", v, ok)
	}
	if _, ok := rec.Replica.Tombstone(8); !ok {
		t.Fatal("replica tombstone lost")
	}
	if rec.Primary.Len() != 1 {
		t.Fatalf("primary polluted: %d items", rec.Primary.Len())
	}
}

func TestPolicyNeverAndIntervalStillRecoverAfterClose(t *testing.T) {
	for _, p := range []Policy{PolicyInterval, PolicyNever} {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			e, _ := mustOpen(t, dir, p)
			for i := 0; i < 20; i++ {
				if err := e.Append(put(uint64(i), "v")); err != nil {
					t.Fatal(err)
				}
			}
			// Close flushes the buffer to the OS even when the policy
			// never fsyncs, so a clean shutdown loses nothing. A
			// process crash before Close can lose the appends still
			// buffered since the last interval flush.
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			e2, rec := mustOpen(t, dir, p)
			defer e2.Close()
			if rec.Primary.Len() != 20 {
				t.Fatalf("%s: recovered %d items, want 20", p, rec.Primary.Len())
			}
		})
	}
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{"always": PolicyAlways, "interval": PolicyInterval, "never": PolicyNever, "": PolicyInterval, " Always ": PolicyAlways} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy(bogus) should fail")
	}
}

func TestInspect(t *testing.T) {
	dir := t.TempDir()
	e, _ := mustOpen(t, dir, PolicyAlways)
	s := &storage.Store{}
	s.ApplyMutation(put(1, "v").Mut)
	if err := e.Snapshot(s, &storage.Store{}, 99); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := e.Append(put(uint64(i), "after-snap")); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Frames != 3 || st.LastSnapshot != 99 || st.WALBytes == 0 {
		t.Fatalf("Inspect = %+v", st)
	}
}

func TestFrameCodecRejectsDamage(t *testing.T) {
	var buf []byte
	buf = appendRecord(buf, put(1, "hello"))
	// Intact decode.
	var scratch []byte
	rec, n, err := readFrame(bytes.NewReader(buf), &scratch)
	if err != nil || int(n) != len(buf) || string(rec.Mut.Value) != "hello" {
		t.Fatalf("intact frame: %+v %d %v", rec, n, err)
	}
	// Every single-byte flip must be caught.
	for i := range buf {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0xFF
		if _, _, err := readFrame(bytes.NewReader(mut), &scratch); err == nil {
			t.Fatalf("flip at byte %d went undetected", i)
		}
	}
}

func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	e, _ := mustOpen(t, dir, PolicyAlways)
	const goroutines, per = 8, 25
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for i := 0; i < per; i++ {
				if err := e.Append(put(uint64(g*1000+i), "cc")); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, rec := mustOpen(t, dir, PolicyAlways)
	defer e2.Close()
	if rec.Primary.Len() != goroutines*per {
		t.Fatalf("recovered %d items, want %d", rec.Primary.Len(), goroutines*per)
	}
}

func TestSnapshotSurvivesLogLoss(t *testing.T) {
	// Deleting wal.log entirely (e.g. disk cleanup between snapshot
	// and restart) must still recover the snapshot state.
	dir := t.TempDir()
	e, _ := mustOpen(t, dir, PolicyAlways)
	s := &storage.Store{}
	s.ApplyMutation(put(5, "kept").Mut)
	if err := e.Snapshot(s, &storage.Store{}, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, walFile)); err != nil {
		t.Fatal(err)
	}
	e2, rec := mustOpen(t, dir, PolicyAlways)
	defer e2.Close()
	if v, ok := rec.Primary.Get(5); !ok || string(v) != "kept" {
		t.Fatalf("snapshot state lost: %q %v", v, ok)
	}
}

func TestScanFramesStopsAtFirstDamage(t *testing.T) {
	var buf []byte
	for i := 0; i < 3; i++ {
		buf = appendRecord(buf, put(uint64(i), "v"))
	}
	frameLen := len(buf) / 3
	// Damage frame 2's checksum region.
	buf[frameLen+5] ^= 0x01
	good, frames, torn := scanFrames(bufio.NewReader(bytes.NewReader(buf)), func(Record) {})
	if !torn || frames != 1 || good != int64(frameLen) {
		t.Fatalf("good=%d frames=%d torn=%v; want %d,1,true", good, frames, torn, frameLen)
	}
}
