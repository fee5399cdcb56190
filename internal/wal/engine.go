package wal

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Policy selects when appended frames are forced to stable storage.
type Policy uint8

const (
	// PolicyAlways fsyncs before every Append returns: an acked write
	// is durable. Group-commit coalescing keeps concurrent appenders
	// from each paying a separate fsync.
	PolicyAlways Policy = iota
	// PolicyInterval fsyncs on a background timer (FsyncInterval):
	// a crash loses at most one interval of acked writes.
	PolicyInterval
	// PolicyNever never fsyncs. Appends sit in a user-space buffer
	// until the background flusher hands them to the OS, once per
	// FsyncInterval (Close flushes the rest): a process crash can lose
	// up to one interval of acked writes, a machine crash everything
	// since the last snapshot.
	PolicyNever
)

// ParsePolicy maps the CLI/API spellings onto a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "interval":
		return PolicyInterval, nil
	case "always":
		return PolicyAlways, nil
	case "never":
		return PolicyNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or never)", s)
}

func (p Policy) String() string {
	switch p {
	case PolicyAlways:
		return "always"
	case PolicyInterval:
		return "interval"
	case PolicyNever:
		return "never"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// DefaultFsyncInterval is the flush cadence for PolicyInterval when
// none is configured.
const DefaultFsyncInterval = 100 * time.Millisecond

// nowNanos is the engine's clock (a hook point for tests).
var nowNanos = func() int64 { return time.Now().UnixNano() }

const (
	walFile      = "wal.log"
	snapFile     = "snapshot"
	snapTempFile = "snapshot.tmp"
	cleanFile    = "clean"
)

// Options configures Open.
type Options struct {
	// Dir is the node's data directory; created if absent.
	Dir string
	// Policy is the fsync policy (default PolicyInterval).
	Policy Policy
	// FsyncInterval overrides DefaultFsyncInterval for PolicyInterval.
	FsyncInterval time.Duration
}

// Stats is a point-in-time view of the engine's on-disk state.
type Stats struct {
	// WALBytes is the current size of wal.log.
	WALBytes int64
	// Frames is the number of intact frames appended since the last
	// snapshot (i.e. the replay cost of a crash right now).
	Frames uint64
	// LastSnapshot is the unix-nano save time of the newest snapshot,
	// or zero if none exists.
	LastSnapshot int64
	// Policy is the configured fsync policy.
	Policy Policy
}

// Engine is the per-node durable log. All methods are safe for
// concurrent use; Append is ordered by whatever lock serialises the
// caller's store mutations (the sink contract in package storage).
type Engine struct {
	dir      string
	policy   Policy
	interval time.Duration

	// mu guards the buffered writer, file handle, counters, and err.
	mu       sync.Mutex
	f        *os.File
	buf      *bufio.Writer
	written  int64 // bytes appended (buffered + on disk)
	frames   uint64
	lastSnap int64
	scratch  []byte
	err      error // sticky background-write failure

	// syncMu serialises fsync so concurrent appenders group-commit:
	// one fsync covers every byte flushed before it. Lock order is
	// syncMu before mu.
	syncMu sync.Mutex
	synced int64 // byte offset known durable

	closeOnce sync.Once
	closed    chan struct{}
	done      chan struct{} // flusher exited (nil when no flusher)
}

// Open opens (creating if needed) the engine in opts.Dir and performs
// recovery: load the snapshot if present, replay the log tail over it
// (truncating a torn final frame), and compact. The recovered store
// state is returned alongside the ready-to-append engine.
func Open(opts Options) (*Engine, *Recovered, error) {
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("wal: empty data dir")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: create data dir: %w", err)
	}
	e := &Engine{
		dir:      opts.Dir,
		policy:   opts.Policy,
		interval: opts.FsyncInterval,
		closed:   make(chan struct{}),
	}
	if e.interval <= 0 {
		e.interval = DefaultFsyncInterval
	}
	rec, err := e.recover()
	if err != nil {
		return nil, nil, err
	}
	if e.policy != PolicyAlways {
		e.done = make(chan struct{})
		go e.flusher()
	}
	return e, rec, nil
}

// Append logs one mutation. Under PolicyAlways it does not return
// until the frame is durable.
func (e *Engine) Append(rec Record) error {
	e.mu.Lock()
	if e.err != nil {
		err := e.err
		e.mu.Unlock()
		return err
	}
	e.scratch = appendRecord(e.scratch[:0], rec)
	n, err := e.buf.Write(e.scratch)
	e.written += int64(n)
	e.frames++
	if err != nil {
		e.err = err
		e.mu.Unlock()
		return err
	}
	off := e.written
	e.mu.Unlock()
	if e.policy == PolicyAlways {
		return e.syncTo(off)
	}
	return nil
}

// syncTo makes every byte up to off durable. Concurrent callers
// group-commit: whoever wins syncMu flushes and fsyncs everything
// written so far, and late arrivals find their offset already covered.
func (e *Engine) syncTo(off int64) error {
	e.syncMu.Lock()
	defer e.syncMu.Unlock()
	if e.synced >= off {
		return nil
	}
	return e.syncLocked()
}

// syncLocked flushes and fsyncs everything appended so far. Caller
// holds syncMu.
func (e *Engine) syncLocked() error {
	e.mu.Lock()
	err := e.buf.Flush()
	if err != nil {
		e.err = err
	}
	f, target := e.f, e.written
	e.mu.Unlock()
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		e.mu.Lock()
		e.err = err
		e.mu.Unlock()
		return err
	}
	e.synced = target
	return nil
}

// Sync forces everything appended so far to stable storage regardless
// of policy.
func (e *Engine) Sync() error {
	e.syncMu.Lock()
	defer e.syncMu.Unlock()
	return e.syncLocked()
}

// flusher is the background loop for the interval and never policies.
func (e *Engine) flusher() {
	defer close(e.done)
	t := time.NewTicker(e.interval)
	defer t.Stop()
	for {
		select {
		case <-e.closed:
			return
		case <-t.C:
			if e.policy == PolicyInterval {
				_ = e.Sync()
			} else { // PolicyNever: hand buffered bytes to the OS only
				e.mu.Lock()
				if err := e.buf.Flush(); err != nil && e.err == nil {
					e.err = err
				}
				e.mu.Unlock()
			}
		}
	}
}

// Stats reports the engine's current on-disk footprint.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{WALBytes: e.written, Frames: e.frames, LastSnapshot: e.lastSnap, Policy: e.policy}
}

// MarkClean writes the clean-shutdown marker. Recovery consumes it, so
// its presence means "the previous run shut down cleanly".
func (e *Engine) MarkClean() error {
	f, err := os.Create(filepath.Join(e.dir, cleanFile))
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Close stops the flusher and flushes buffered frames to the OS
// without snapshotting — the crash-adjacent path. Durability of the
// tail is whatever the policy already guaranteed.
func (e *Engine) Close() error {
	var err error
	e.closeOnce.Do(func() {
		close(e.closed)
		if e.done != nil {
			<-e.done
		}
		e.mu.Lock()
		ferr := e.buf.Flush()
		cerr := e.f.Close()
		e.mu.Unlock()
		if ferr != nil {
			err = ferr
		} else if cerr != nil {
			err = cerr
		}
	})
	return err
}

// openLog opens wal.log for appending, positioned at size. Caller
// holds mu (or is single-threaded during recovery).
func (e *Engine) openLog(size int64) error {
	f, err := os.OpenFile(filepath.Join(e.dir, walFile), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Seek(size, 0); err != nil {
		f.Close()
		return err
	}
	e.f = f
	e.buf = bufio.NewWriterSize(f, 1<<16)
	e.written = size
	e.synced = size
	return nil
}

// syncDir fsyncs the data directory so renames and creates within it
// are durable.
func (e *Engine) syncDir() error {
	d, err := os.Open(e.dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
