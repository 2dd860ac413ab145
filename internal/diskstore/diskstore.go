// Package diskstore is an embedded, crash-safe persistent chunk store:
// the durable tier under a PDS node's data store. Records — chunk or
// small-item payloads plus their encoded descriptors — are framed with
// a CRC-32C header and appended to segment log files; an in-memory
// key→(segment, offset) index, rebuilt by a recovery scan on Open,
// serves reads. The log is last-record-wins: overwrites and deletions
// append, a compactor rewrites live records and reclaims the dead
// space, and recovery replays segments in order so a crash at any byte
// boundary loses at most the record being appended (the torn tail is
// truncated; mid-log corruption is skipped and counted).
//
// The store never reads a clock for anything but recovery timing and
// never draws randomness, so putting one under a simulated node leaves
// same-seed metric rows byte-identical to a pure in-memory run.
package diskstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Options tunes a Store; the zero value selects defaults.
type Options struct {
	// SegmentMaxBytes is the rotation threshold: an append that would
	// grow the active segment past it starts a new segment. Default
	// 8 MB (32 chunk records).
	SegmentMaxBytes int
	// PersistCached keeps non-owned (cached) records across WipeCached
	// and reopen: the optionally-persistent cache tier. Default off —
	// the paper's crash semantics, volatile cache lost.
	PersistCached bool
	// NoAutoCompact disables the automatic compaction that runs when
	// dead bytes exceed both SegmentMaxBytes and half the log. Compact
	// can still be called explicitly.
	NoAutoCompact bool
	// Sync fsyncs the active segment after every append. Off by
	// default: the recovery scan already bounds loss to the torn tail,
	// and per-record fsync is ruinous on the chunk path.
	Sync bool
}

const defaultSegmentMaxBytes = 8 << 20

func (o Options) withDefaults() Options {
	if o.SegmentMaxBytes <= 0 {
		o.SegmentMaxBytes = defaultSegmentMaxBytes
	}
	return o
}

// RecoveryStats reports what the Open-time scan found.
type RecoveryStats struct {
	Segments       int           // segment files scanned
	Records        int           // records replayed (live and superseded)
	SkippedRecords int           // corrupt records (or regions) stepped over
	TruncatedBytes int64         // torn-tail bytes cut off the last segment
	Duration       time.Duration // wall time of the scan
}

// Stats is a point-in-time snapshot of store state and counters.
type Stats struct {
	Segments     int
	LiveRecords  int
	LiveBytes    int64
	DeadBytes    int64
	Puts         uint64
	Gets         uint64
	Deletes      uint64
	BytesWritten uint64
	Compactions  uint64
	LastRecovery RecoveryStats
}

// loc locates one live record in the log.
type loc struct {
	seg        int
	off        int64
	size       int32
	owned      bool
	hasPayload bool
}

// segFile is one open segment.
type segFile struct {
	id   int
	f    *os.File
	size int64
}

// Store is the persistent chunk store. All methods are safe for
// concurrent use.
type Store struct {
	mu     sync.Mutex
	dir    string
	opts   Options
	segs   map[int]*segFile
	ids    []int // sorted segment ids; last is the active segment
	index  map[string]loc
	live   int64
	dead   int64
	buf    []byte // scratch append buffer
	closed bool
	// onCompact, when set, observes each finished compaction with the
	// segment count before it and the bytes reclaimed. Called with the
	// store lock held; observers must not call back into the store.
	onCompact func(segmentsBefore int, reclaimedBytes int64)

	puts, gets, deletes, bytesWritten, compactions uint64
	recovery                                       RecoveryStats
}

// SetCompactHook installs the compaction observer (tracing).
func (s *Store) SetCompactHook(fn func(segmentsBefore int, reclaimedBytes int64)) {
	s.mu.Lock()
	s.onCompact = fn
	s.mu.Unlock()
}

func segName(id int) string { return fmt.Sprintf("seg-%08d.log", id) }

// parseSegName inverts segName; ok is false for foreign files.
func parseSegName(name string) (int, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	id, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".log"))
	if err != nil || id <= 0 {
		return 0, false
	}
	return id, true
}

// Open opens (creating if necessary) the store rooted at dir and runs
// the recovery scan: segments are replayed in order, last record wins,
// a torn tail on the final segment is truncated away and corrupt
// records are skipped and counted.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	s := &Store{
		dir:   dir,
		opts:  opts,
		segs:  make(map[int]*segFile),
		index: make(map[string]loc),
	}
	if err := s.recover(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// recover scans the segment files and rebuilds the index.
func (s *Store) recover() error {
	start := time.Now()
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	var ids []int
	for _, de := range names {
		if id, ok := parseSegName(de.Name()); ok {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for i, id := range ids {
		last := i == len(ids)-1
		if err := s.replaySegment(id, last); err != nil {
			return err
		}
	}
	if len(s.ids) == 0 {
		if err := s.addSegment(1); err != nil {
			return err
		}
	}
	// A log reopened after a crash still holds the dead node's volatile
	// cache; unless that tier is persistent, tombstone it now so a
	// kill-9'd process cannot resurrect cached records on restart.
	if !s.opts.PersistCached {
		if err := s.wipeCachedLocked(); err != nil {
			return err
		}
	}
	s.recovery.Segments = len(ids)
	s.recovery.Duration = time.Since(start)
	return nil
}

// replaySegment scans one segment file, applying records to the index.
// last marks the final (active) segment, the only one whose tail may
// legitimately be torn.
func (s *Store) replaySegment(id int, last bool) error {
	path := filepath.Join(s.dir, segName(id))
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	off := 0
	truncateAt := -1
scan:
	for off < len(data) {
		rec, n, err := decodeRecord(data[off:])
		switch err {
		case nil:
			s.applyRecord(rec, id, int64(off), n)
			s.recovery.Records++
			off += n
		case errCorrupt:
			// The frame is whole but the content is damaged: step over
			// it and keep the records behind it.
			s.recovery.SkippedRecords++
			s.dead += int64(n)
			off += n
		default: // errTruncated, errBadLength
			if last {
				// Torn tail of the active segment: the append that was
				// in flight when the writer died. Cut it off so new
				// appends start at a clean boundary.
				truncateAt = off
			} else {
				// A non-final segment can't be torn by a crash (it was
				// rotated away whole); its unreadable remainder is one
				// lost region.
				s.recovery.SkippedRecords++
				s.dead += int64(len(data) - off)
				off = len(data)
			}
			break scan
		}
	}
	size := int64(len(data))
	if truncateAt >= 0 {
		s.recovery.TruncatedBytes += size - int64(truncateAt)
		size = int64(truncateAt)
		if err := os.Truncate(path, size); err != nil {
			return fmt.Errorf("diskstore: truncating torn tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	s.segs[id] = &segFile{id: id, f: f, size: size}
	s.ids = append(s.ids, id)
	return nil
}

// applyRecord folds one replayed record into the index (last wins).
func (s *Store) applyRecord(rec record, seg int, off int64, size int) {
	if old, ok := s.index[rec.Key]; ok {
		s.dead += int64(old.size)
		s.live -= int64(old.size)
		delete(s.index, rec.Key)
	}
	if rec.Tombstone {
		s.dead += int64(size) // the tombstone itself is dead weight
		return
	}
	s.index[rec.Key] = loc{
		seg: seg, off: off, size: int32(size),
		owned: rec.Owned, hasPayload: rec.HasPayload,
	}
	s.live += int64(size)
}

// addSegment creates and activates a fresh segment file.
func (s *Store) addSegment(id int) error {
	f, err := os.OpenFile(filepath.Join(s.dir, segName(id)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	s.segs[id] = &segFile{id: id, f: f}
	s.ids = append(s.ids, id)
	return nil
}

// active returns the append segment.
func (s *Store) active() *segFile { return s.segs[s.ids[len(s.ids)-1]] }

// appendLocked frames rec and appends it, rotating first if the active
// segment would outgrow the limit. It returns the record's location.
func (s *Store) appendLocked(rec record) (loc, error) {
	s.buf = appendRecord(s.buf[:0], rec)
	a := s.active()
	if a.size > 0 && a.size+int64(len(s.buf)) > int64(s.opts.SegmentMaxBytes) {
		if err := s.addSegment(a.id + 1); err != nil {
			return loc{}, err
		}
		a = s.active()
	}
	if _, err := a.f.WriteAt(s.buf, a.size); err != nil {
		return loc{}, fmt.Errorf("diskstore: append: %w", err)
	}
	if s.opts.Sync {
		if err := a.f.Sync(); err != nil {
			return loc{}, fmt.Errorf("diskstore: sync: %w", err)
		}
	}
	l := loc{
		seg: a.id, off: a.size, size: int32(len(s.buf)),
		owned: rec.Owned, hasPayload: rec.HasPayload,
	}
	a.size += int64(len(s.buf))
	s.bytesWritten += uint64(len(s.buf))
	return l, nil
}

// Put stores (or overwrites) the record for key: meta is the encoded
// descriptor, payload the chunk bytes (hasPayload distinguishes an
// entry-only record from an empty payload), owned marks it durable
// across WipeCached.
func (s *Store) Put(key string, meta, payload []byte, hasPayload, owned bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	l, err := s.appendLocked(record{
		Key: key, Meta: meta, Payload: payload,
		HasPayload: hasPayload, Owned: owned,
	})
	if err != nil {
		return err
	}
	if old, ok := s.index[key]; ok {
		s.dead += int64(old.size)
		s.live -= int64(old.size)
	}
	s.index[key] = l
	s.live += int64(l.size)
	s.puts++
	s.maybeCompactLocked()
	return nil
}

var errClosed = fmt.Errorf("diskstore: store is closed")

// readLocked reads and decodes the record at l.
func (s *Store) readLocked(l loc) (record, error) {
	sf := s.segs[l.seg]
	if sf == nil {
		return record{}, fmt.Errorf("diskstore: segment %d vanished", l.seg)
	}
	buf := make([]byte, l.size)
	if _, err := sf.f.ReadAt(buf, l.off); err != nil {
		return record{}, fmt.Errorf("diskstore: read: %w", err)
	}
	rec, _, err := decodeRecord(buf)
	if err != nil {
		return record{}, fmt.Errorf("diskstore: record in segment %d unreadable: %w", l.seg, err)
	}
	return rec, nil
}

// Get returns the payload stored for key. ok is false when the key is
// absent or its record carries no payload.
func (s *Store) Get(key string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, errClosed
	}
	l, ok := s.index[key]
	if !ok {
		return nil, false, nil
	}
	rec, err := s.readLocked(l)
	if err != nil {
		return nil, false, err
	}
	s.gets++
	if !rec.HasPayload {
		return nil, false, nil
	}
	return rec.Payload, true, nil
}

// Has reports whether a live record exists for key.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[key]
	return ok
}

// HasPayload reports whether a live payload-bearing record exists for
// key (entry-only records don't count).
func (s *Store) HasPayload(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.index[key]
	return ok && l.hasPayload
}

// Delete removes the key by appending a tombstone. Deleting an absent
// key is a no-op.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	if err := s.deleteLocked(key); err != nil {
		return err
	}
	s.maybeCompactLocked()
	return nil
}

func (s *Store) deleteLocked(key string) error {
	old, ok := s.index[key]
	if !ok {
		return nil
	}
	l, err := s.appendLocked(record{Key: key, Tombstone: true})
	if err != nil {
		return err
	}
	delete(s.index, key)
	s.live -= int64(old.size)
	s.dead += int64(old.size) + int64(l.size)
	s.deletes++
	return nil
}

// WipeCached deletes every non-owned record — the crash semantics of a
// volatile cache — unless the store was opened with PersistCached.
// Owned records are never touched.
func (s *Store) WipeCached() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	if s.opts.PersistCached {
		return nil
	}
	if err := s.wipeCachedLocked(); err != nil {
		return err
	}
	s.maybeCompactLocked()
	return nil
}

func (s *Store) wipeCachedLocked() error {
	keys := make([]string, 0)
	for k, l := range s.index {
		if !l.owned {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys) // deterministic log contents for identical histories
	for _, k := range keys {
		if err := s.deleteLocked(k); err != nil {
			return err
		}
	}
	return nil
}

// Range calls fn for every live record in sorted key order, stopping on
// the first error. The meta and payload slices are freshly read and may
// be retained.
func (s *Store) Range(fn func(key string, meta, payload []byte, hasPayload, owned bool) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rec, err := s.readLocked(s.index[k])
		if err != nil {
			return err
		}
		if err := fn(k, rec.Meta, rec.Payload, rec.HasPayload, rec.Owned); err != nil {
			return err
		}
	}
	return nil
}

// maybeCompactLocked runs a compaction when the dead fraction justifies
// the copy: dead bytes exceed a segment's worth and at least half the
// log is dead.
func (s *Store) maybeCompactLocked() {
	if s.opts.NoAutoCompact {
		return
	}
	if s.dead >= int64(s.opts.SegmentMaxBytes) && s.dead >= s.live {
		// Compaction failure is not data loss — the live records still
		// sit in the old segments — so an auto-compact swallows the
		// error; the next one (or Close) will surface real I/O trouble.
		_ = s.compactLocked()
	}
}

// Compact rewrites every live record into fresh segments and deletes
// the old files, reclaiming the space held by superseded records,
// tombstones and skipped corruption.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	oldIDs := append([]int(nil), s.ids...)
	// Start a fresh segment so every surviving record lands past the
	// compaction horizon; replay order then guarantees the new copies
	// win even if we crash before the old files are deleted.
	if err := s.addSegment(s.active().id + 1); err != nil {
		return err
	}
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		l := s.index[k]
		rec, err := s.readLocked(l)
		if err != nil {
			return err
		}
		nl, err := s.appendLocked(rec)
		if err != nil {
			return err
		}
		s.index[k] = nl
	}
	// All live data is in the new tail; drop the old segments.
	for _, id := range oldIDs {
		sf := s.segs[id]
		sf.f.Close()
		if err := os.Remove(filepath.Join(s.dir, segName(id))); err != nil {
			return fmt.Errorf("diskstore: removing compacted segment: %w", err)
		}
		delete(s.segs, id)
	}
	s.ids = s.ids[len(oldIDs):]
	// Recompute the ledgers from scratch: everything on disk is live.
	segsBefore := len(oldIDs)
	reclaimed := s.dead
	s.live = 0
	for _, l := range s.index {
		s.live += int64(l.size)
	}
	s.dead = 0
	s.compactions++
	if s.onCompact != nil {
		s.onCompact(segsBefore, reclaimed)
	}
	return nil
}

// Stats returns a snapshot of store state and counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Segments:     len(s.ids),
		LiveRecords:  len(s.index),
		LiveBytes:    s.live,
		DeadBytes:    s.dead,
		Puts:         s.puts,
		Gets:         s.gets,
		Deletes:      s.deletes,
		BytesWritten: s.bytesWritten,
		Compactions:  s.compactions,
		LastRecovery: s.recovery,
	}
}

// Close syncs and closes every segment file. The store is unusable
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for _, sf := range s.segs {
		if err := sf.f.Sync(); err != nil && first == nil {
			first = err
		}
		if err := sf.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
