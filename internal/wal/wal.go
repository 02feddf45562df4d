// Package wal is a segmented, CRC32C-framed write-ahead journal with
// point-in-time snapshots, built for dlzd's optional durability rung
// (DESIGN.md §12).
//
// The write path is a single-writer append log: Append frames one record
// (length + CRC32C + canonical payload), writes it to the active segment
// with one write(2), and hands back its log sequence number. A record that
// reached write(2) survives SIGKILL of the process — fsync only matters for
// machine crashes — so the fsync policy trades machine-crash durability
// against latency: FsyncNever leaves syncing to segment seals, FsyncInterval
// runs a background flusher, FsyncAlways group-commits (every waiter blocks
// until a sync covering its LSN completes, but concurrent waiters share one
// fsync).
//
// Segments are named wal-%016x.seg by the first LSN they hold and start with
// the format word segWord; snapshots are named snap-%016x.snap by their cut
// LSN. Recovery (Open) streams the newest decodable snapshot into per-tenant
// item slices, then streams the chained segment tail behind it through one
// 64 KiB read window, folding each record into sorted runs of the tail's
// unmatched elements as it is decoded. It truncates the first torn or corrupt
// frame, drops unreachable later segments, and reports the states and
// everything it did in Recovered; a file in another on-disk format fails it
// instead, with nothing repaired. Boot memory is the window and those runs,
// which start as the snapshot's items; the segment size does not enter it.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fail"
)

// FsyncPolicy selects when appended records are fsynced to stable storage.
type FsyncPolicy int

const (
	// FsyncNever syncs only when a segment seals (roll or Close). Records
	// still survive process SIGKILL once written; a machine crash can lose
	// the unsynced tail.
	FsyncNever FsyncPolicy = iota
	// FsyncInterval runs a background flusher that syncs the active segment
	// every Options.Interval, bounding machine-crash loss to one interval.
	FsyncInterval
	// FsyncAlways group-commits: every Append blocks until an fsync covering
	// its record completes. Concurrent appenders share one fsync (the
	// batching flusher), so throughput degrades to one sync per batch, not
	// one per record.
	FsyncAlways
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncNever:
		return "never"
	case FsyncInterval:
		return "interval"
	case FsyncAlways:
		return "always"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// ParseFsyncPolicy parses the flag spellings "never", "interval", "always".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "never":
		return FsyncNever, nil
	case "interval":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want never, interval or always)", s)
}

// Options configures Open.
type Options struct {
	// Dir is the journal directory; created if absent.
	Dir string
	// Policy is the fsync policy (default FsyncNever).
	Policy FsyncPolicy
	// Interval is the FsyncInterval flusher period (default 100ms).
	Interval time.Duration
	// SegmentBytes rolls the active segment when it would exceed this size
	// (default 4MiB). Oversized single records still append whole.
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// segWord heads every segment; its last byte is the format version. A
// segment without it, or with another version, is refused, not read as torn.
const segWord = "DLZJRNL3"

// errFormat marks a journal file in an on-disk format this build does not
// read: Open and Replay fail on it without touching any file.
var errFormat = errors.New("written in another on-disk format; refusing to recover")

// ErrClosed is returned by Append after Close, and sticks after an
// unrecoverable write failure left the active segment in an unknown state.
var ErrClosed = fmt.Errorf("wal: log closed")

// Log is the append side of the journal. Safe for concurrent use.
type Log struct {
	opt Options

	mu       sync.Mutex // guards f, head, segBytes, dirty, err, scratch
	f        *os.File
	segName  string
	segBytes int64
	head     uint64 // last assigned LSN
	dirty    bool   // unsynced bytes in the active segment
	err      error  // sticky: closed or broken
	scratch  []byte

	// Group-commit state for FsyncAlways.
	fmu        sync.Mutex
	fcond      *sync.Cond
	flushedLSN uint64
	flushing   bool
	ferr       error

	headWord   atomic.Uint64
	bytesTotal atomic.Uint64
	fsyncs     atomic.Uint64
	sinceSnap  atomic.Int64
	snapCut    atomic.Uint64

	stop chan struct{}
	wg   sync.WaitGroup
}

func segName(first uint64) string { return fmt.Sprintf("wal-%016x.seg", first) }
func snapName(cut uint64) string  { return fmt.Sprintf("snap-%016x.snap", cut) }
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if len(mid) != 16 {
		return 0, false
	}
	var v uint64
	if _, err := fmt.Sscanf(mid, "%016x", &v); err != nil {
		return 0, false
	}
	return v, true
}

// dirFile is one journal file: a segment, whose seq is its first LSN, or a
// snapshot, whose seq is its cut.
type dirFile struct {
	seq  uint64
	path string
}

// listDir returns dir's segments and snapshots, each sorted by seq.
func listDir(dir string) (segs, snaps []dirFile, err error) {
	entries, err := os.ReadDir(dir)
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		if seq, ok := parseSeq(e.Name(), "wal-", ".seg"); ok {
			segs = append(segs, dirFile{seq, path})
		} else if seq, ok := parseSeq(e.Name(), "snap-", ".snap"); ok {
			snaps = append(snaps, dirFile{seq, path})
		}
	}
	for _, fs := range [][]dirFile{segs, snaps} {
		sort.Slice(fs, func(i, j int) bool { return fs[i].seq < fs[j].seq })
	}
	return segs, snaps, err
}

// Open recovers the journal in opt.Dir (truncating any torn tail), starts a
// fresh active segment at head+1, and returns the writable log plus what
// recovery found. The caller restores Recovered.States into its in-memory
// state before serving traffic.
func Open(opt Options) (*Log, *Recovered, error) {
	return OpenWithProgress(opt, new(Progress))
}

// OpenWithProgress is Open publishing its replay progress in prog after
// every segment, for a caller that reports it while recovery runs.
func OpenWithProgress(opt Options, prog *Progress) (*Log, *Recovered, error) {
	opt = opt.withDefaults()
	if opt.Dir == "" {
		return nil, nil, fmt.Errorf("wal: Options.Dir is required")
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	rec, err := recoverDir(opt.Dir, false, prog)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{opt: opt, head: rec.Head}
	l.fcond = sync.NewCond(&l.fmu)
	l.headWord.Store(rec.Head)
	l.flushedLSN = rec.Head // on-disk state is as durable as it will get
	l.snapCut.Store(rec.SnapshotCut)
	l.sinceSnap.Store(rec.TailBytes)
	if err := l.openSegment(rec.Head + 1); err != nil {
		return nil, nil, err
	}
	if opt.Policy == FsyncInterval {
		l.stop = make(chan struct{})
		l.wg.Add(1)
		go l.flushLoop()
	}
	return l, rec, nil
}

// openSegment creates the segment named by first, writes its format word
// and makes it the active one. The directory is fsynced before any record
// goes into the file: fsyncing a record's bytes does not make the file's name
// durable, and a power cut after a roll must not lose the file that holds
// them.
func (l *Log) openSegment(first uint64) error {
	name := segName(first)
	f, err := os.OpenFile(filepath.Join(l.opt.Dir, name), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.WriteString(segWord); err == nil {
		err = syncDir(l.opt.Dir)
	}
	if err != nil {
		_ = f.Close() // holds no record: recovery reads a short word as an empty torn segment
		return err
	}
	l.f = f
	l.segName = name
	l.segBytes = int64(len(segWord))
	return nil
}

// syncDir fsyncs a directory, making the creations and renames done in it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Append assigns the next LSN to r, frames it, and writes it to the active
// segment. On return with a nil error the record has reached write(2) — it
// survives a SIGKILL — and, under FsyncAlways, an fsync as well. A refused
// append (failpoint, write error, a record recovery would reject) leaves the
// journal exactly as it was: the record gets no LSN and recovery will never
// see it.
func (l *Log) Append(r *Record) (uint64, error) {
	if len(r.Items) > maxBatchItems || payloadLen(r) > MaxPayload {
		// Written, the frame would stop every recovery that reached it, and
		// truncate it away with every record behind it.
		return 0, fmt.Errorf("wal: record of %d items (%d payload bytes) exceeds the frame limits (%d items, %d bytes)",
			len(r.Items), payloadLen(r), maxBatchItems, MaxPayload)
	}
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return 0, err
	}
	if fail.Enabled {
		if err := fail.Inject(fail.SiteWALAppend); err != nil {
			l.mu.Unlock()
			return 0, err
		}
	}
	lsn := l.head + 1
	r.LSN = lsn
	l.scratch = appendFrame(l.scratch[:0], r)
	frame := l.scratch
	if l.segBytes > int64(len(segWord)) && l.segBytes+int64(len(frame)) > l.opt.SegmentBytes {
		if err := l.rollLocked(lsn); err != nil {
			l.mu.Unlock()
			return 0, err
		}
	}
	n, werr := l.f.Write(frame)
	if werr != nil || n != len(frame) {
		// Claw the partial frame back so the segment stays frame-aligned;
		// if even that fails the log is broken and refuses further appends.
		if terr := l.f.Truncate(l.segBytes); terr != nil {
			l.err = ErrClosed
		}
		l.mu.Unlock()
		if werr == nil {
			werr = fmt.Errorf("wal: short write (%d of %d bytes)", n, len(frame))
		}
		return 0, werr
	}
	l.head = lsn
	l.headWord.Store(lsn)
	l.segBytes += int64(n)
	l.dirty = true
	l.bytesTotal.Add(uint64(n))
	l.sinceSnap.Add(int64(n))
	l.mu.Unlock()

	if l.opt.Policy == FsyncAlways {
		if err := l.fsyncWait(lsn); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// rollLocked seals the active segment (sync + close) and opens a fresh one
// whose name records the LSN about to be written. Called with l.mu held.
func (l *Log) rollLocked(first uint64) error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	return l.openSegment(first)
}

// syncLocked fsyncs the active segment if it has unsynced bytes. Called
// with l.mu held.
func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	if fail.Enabled {
		_ = fail.Inject(fail.SiteWALFsync)
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.dirty = false
	l.fsyncs.Add(1)
	return nil
}

// fsyncWait implements group commit: it returns once a sync covering lsn
// has completed. Exactly one waiter performs the sync; the rest block on
// the condition variable and are released in a batch.
func (l *Log) fsyncWait(lsn uint64) error {
	l.fmu.Lock()
	for {
		if l.ferr != nil {
			err := l.ferr
			l.fmu.Unlock()
			return err
		}
		if l.flushedLSN >= lsn {
			l.fmu.Unlock()
			return nil
		}
		if !l.flushing {
			l.flushing = true
			l.fmu.Unlock()

			l.mu.Lock()
			target := l.head
			serr := l.err
			if serr == nil {
				serr = l.syncLocked()
			}
			l.mu.Unlock()

			l.fmu.Lock()
			l.flushing = false
			if serr != nil {
				l.ferr = serr
			} else if target > l.flushedLSN {
				l.flushedLSN = target
			}
			l.fcond.Broadcast()
			continue
		}
		l.fcond.Wait()
	}
}

// flushLoop is the FsyncInterval background flusher.
func (l *Log) flushLoop() {
	defer l.wg.Done()
	t := time.NewTicker(l.opt.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if l.err == nil {
				_ = l.syncLocked()
			}
			l.mu.Unlock()
		}
	}
}

// Head returns the last assigned LSN.
func (l *Log) Head() uint64 { return l.headWord.Load() }

// Fsyncs returns the number of fsyncs issued against segment files.
func (l *Log) Fsyncs() uint64 { return l.fsyncs.Load() }

// BytesAppended returns the total framed bytes appended since Open.
func (l *Log) BytesAppended() uint64 { return l.bytesTotal.Load() }

// BytesSinceSnapshot returns the journal bytes accumulated since the last
// snapshot (seeded at Open with the replayed tail size), the signal the
// auto-snapshot trigger watches.
func (l *Log) BytesSinceSnapshot() int64 { return l.sinceSnap.Load() }

// SnapshotCut returns the cut LSN of the newest snapshot written or
// recovered.
func (l *Log) SnapshotCut() uint64 { return l.snapCut.Load() }

// Close seals the journal: stops the flusher, syncs and closes the active
// segment, and makes further Appends fail with ErrClosed. A journal closed
// cleanly after a final snapshot replays zero records on the next Open.
func (l *Log) Close() error {
	if l.stop != nil {
		close(l.stop)
		l.wg.Wait()
		l.stop = nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return nil
	}
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.err = ErrClosed
	l.fmu.Lock()
	if l.ferr == nil {
		l.ferr = ErrClosed
	}
	l.fcond.Broadcast()
	l.fmu.Unlock()
	return err
}
