package wal

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/storage"
)

// Recovered is the state reconstructed by Open: the node's two stores
// as of the last durable mutation, plus how we got there.
type Recovered struct {
	// Primary is the recovered owned shard.
	Primary *storage.Store
	// Replica is the recovered replica store.
	Replica *storage.Store
	// Clean reports whether the previous run shut down cleanly (the
	// marker is consumed on read, so a subsequent crash reads false).
	Clean bool
	// SnapshotAt is the unix-nano save time of the snapshot loaded,
	// or zero if recovery started from an empty state.
	SnapshotAt int64
	// Replayed is the number of log frames replayed over the snapshot.
	Replayed int
	// TornTail reports that a torn or corrupt tail was found in the
	// log and discarded — the signature of a crash mid-append.
	TornTail bool
}

// HasState reports whether recovery produced any data at all.
func (r *Recovered) HasState() bool {
	return r.Primary.Len() > 0 || r.Primary.TombstoneCount() > 0 ||
		r.Replica.Len() > 0 || r.Replica.TombstoneCount() > 0
}

// Snapshot serialises the full state of both stores to disk (write to
// snapshot.tmp, fsync, atomic rename, fsync dir) and truncates the
// log. The caller must guarantee the stores reflect every mutation
// appended so far — in practice, call it under the same lock that
// serialises mutations.
func (e *Engine) Snapshot(primary, replica *storage.Store, savedAt int64) error {
	e.syncMu.Lock()
	defer e.syncMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return e.err
	}
	if err := e.buf.Flush(); err != nil {
		e.err = err
		return err
	}
	if err := writeSnapshotFile(e.dir, primary, replica, savedAt); err != nil {
		return err
	}
	if err := e.syncDir(); err != nil {
		return err
	}
	// Everything the log held is now inside the snapshot; an empty log
	// plus this snapshot is the new recovery point.
	if err := e.f.Truncate(0); err != nil {
		e.err = err
		return err
	}
	if _, err := e.f.Seek(0, 0); err != nil {
		e.err = err
		return err
	}
	if err := e.f.Sync(); err != nil {
		e.err = err
		return err
	}
	e.buf.Reset(e.f)
	e.written, e.frames, e.synced = 0, 0, 0
	e.lastSnap = savedAt
	return nil
}

// writeSnapshotFile writes the two stores to dir/snapshot via the
// temp-file + atomic-rename protocol.
func writeSnapshotFile(dir string, primary, replica *storage.Store, savedAt int64) error {
	tmp := filepath.Join(dir, snapTempFile)
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var scratch []byte
	emit := func(rec Record) error {
		scratch = appendRecord(scratch[:0], rec)
		_, err := w.Write(scratch)
		return err
	}
	err = emit(Record{Store: storeHeader, Mut: storage.Mutation{Key: keyspace.Key(headerMagic), At: savedAt}})
	stores := []struct {
		id uint8
		s  *storage.Store
	}{{StorePrimary, primary}, {StoreReplica, replica}}
	for _, st := range stores {
		if err != nil {
			break
		}
		id := st.id
		err = st.s.Walk(func(it storage.Item) error {
			return emit(Record{Store: id, Mut: storage.Mutation{Op: storage.MutPut, Key: it.Key, Value: it.Value}})
		}, func(tb storage.Tombstone) error {
			return emit(Record{Store: id, Mut: storage.Mutation{Op: storage.MutTombstone, Key: tb.Key, At: tb.At}})
		})
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, snapFile))
}

// loadSnapshot applies dir/snapshot into the given stores, returning
// the header's save time. A missing file is not an error (savedAt 0).
func loadSnapshot(dir string, primary, replica *storage.Store) (int64, error) {
	f, err := os.Open(filepath.Join(dir, snapFile))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	var scratch []byte
	hdr, _, err := readFrame(r, &scratch)
	if err == io.EOF { // zero-length file: treat as absent
		return 0, nil
	}
	if err != nil || hdr.Store != storeHeader || uint64(hdr.Mut.Key) != headerMagic {
		return 0, fmt.Errorf("wal: snapshot header invalid")
	}
	savedAt := hdr.Mut.At
	for {
		rec, _, err := readFrame(r, &scratch)
		if err == io.EOF {
			return savedAt, nil
		}
		if err != nil {
			// Snapshots are renamed into place whole; a damaged one is
			// real corruption, not a crash window. Refuse to guess.
			return 0, fmt.Errorf("wal: snapshot corrupt: %v", err)
		}
		applyRecord(rec, primary, replica)
	}
}

// applyRecord routes one record to the store it mutates. Unknown store
// ids are skipped (forward compatibility).
func applyRecord(rec Record, primary, replica *storage.Store) {
	switch rec.Store {
	case StorePrimary:
		primary.ApplyMutation(rec.Mut)
	case StoreReplica:
		replica.ApplyMutation(rec.Mut)
	}
}

// recover performs the Open-time sequence: consume the clean marker,
// discard a stale in-flight snapshot, load the snapshot, replay the
// log tail (truncating a torn frame), and compact if anything was
// replayed.
func (e *Engine) recover() (*Recovered, error) {
	rec := &Recovered{Primary: &storage.Store{}, Replica: &storage.Store{}}

	marker := filepath.Join(e.dir, cleanFile)
	if _, err := os.Stat(marker); err == nil {
		rec.Clean = true
		if err := os.Remove(marker); err != nil {
			return nil, fmt.Errorf("wal: consume clean marker: %w", err)
		}
	}

	// A snapshot.tmp is an interrupted snapshot write; the real
	// snapshot (if any) is still intact under its final name.
	if err := os.Remove(filepath.Join(e.dir, snapTempFile)); err != nil && !os.IsNotExist(err) {
		return nil, err
	}

	savedAt, err := loadSnapshot(e.dir, rec.Primary, rec.Replica)
	if err != nil {
		return nil, err
	}
	rec.SnapshotAt = savedAt
	e.lastSnap = savedAt

	logPath := filepath.Join(e.dir, walFile)
	good := int64(0)
	if f, err := os.Open(logPath); err == nil {
		var frames int
		var torn bool
		good, frames, torn = scanFrames(bufio.NewReaderSize(f, 1<<16), func(r Record) {
			applyRecord(r, rec.Primary, rec.Replica)
		})
		cerr := f.Close()
		if cerr != nil {
			return nil, cerr
		}
		rec.Replayed = frames
		rec.TornTail = torn
		if torn {
			if err := os.Truncate(logPath, good); err != nil {
				return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}

	if err := e.openLog(good); err != nil {
		return nil, err
	}
	e.frames = uint64(rec.Replayed)

	// Fold the replayed tail into a fresh snapshot so the next crash
	// replays nothing we already worked through.
	if rec.Replayed > 0 {
		if err := e.Snapshot(rec.Primary, rec.Replica, nowNanos()); err != nil {
			return nil, fmt.Errorf("wal: post-recovery compaction: %w", err)
		}
	}
	return rec, nil
}

// Inspect reads the on-disk stats of a data directory without opening
// an engine (used by the wal-stats command against a stopped node).
func Inspect(dir string) (Stats, error) {
	var st Stats
	if fi, err := os.Stat(filepath.Join(dir, walFile)); err == nil {
		st.WALBytes = fi.Size()
	} else if !os.IsNotExist(err) {
		return st, err
	}
	if f, err := os.Open(filepath.Join(dir, walFile)); err == nil {
		_, frames, _ := scanFrames(bufio.NewReaderSize(f, 1<<16), func(Record) {})
		f.Close()
		st.Frames = uint64(frames)
	} else if !os.IsNotExist(err) {
		return st, err
	}
	if f, err := os.Open(filepath.Join(dir, snapFile)); err == nil {
		var scratch []byte
		if hdr, _, herr := readFrame(bufio.NewReader(f), &scratch); herr == nil && hdr.Store == storeHeader {
			st.LastSnapshot = hdr.Mut.At
		}
		f.Close()
	} else if !os.IsNotExist(err) {
		return st, err
	}
	return st, nil
}
