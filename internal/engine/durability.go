// Durability: the §5 warehouse recipe. Every update the absorbers apply
// is group-committed to a per-relation operation log (internal/oplog's
// independently-checksummed records); Checkpoint serializes the whole
// engine into one blob and retires the logs; Open recovers by loading the
// checkpoint and replaying whatever each log accumulated since — cutting
// off a torn tail at the last clean record boundary, exactly the failure
// a crash mid-append leaves behind.
//
// The oplog file doubles as the relation's existence marker: Define
// creates it, Drop deletes it, and recovery only resurrects relations
// whose file is present — so a drop stays dropped even when an older
// checkpoint still carries the relation.
//
// Checkpoints are PAUSE-FREE: the engine forks every log onto a
// next-epoch file, then cuts each relation at an epoch fence — one park
// of its absorbers that reads the shards and flips every shard onto the
// new epoch before releasing them, so writers never wait beyond channel
// backpressure; ops applied after the flip are tagged with the new epoch
// and routed to the forked log. Once the blob (built from the cuts)
// renames into place, the old-epoch segments are garbage and compaction
// unlinks them. Crash ordering: rename commits first, unlinks follow, so
// recovery sees either replayable segments or an already-covering
// checkpoint — never a gap. A crash mid-fence leaves segments of an
// epoch BEYOND the checkpoint's; recovery replays every epoch at or
// above the checkpoint's (linearity makes the order irrelevant) and
// re-baselines the directory onto a fresh epoch.
//
// All file access goes through an oplog.FS seam (Options.FS) so the
// fault-injection torture tests can fail fsync, run out of space, tear
// writes, and kill the process at the named crash points writeFileAtomic
// and the compaction loops call out.
package engine

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"amstrack/internal/oplog"
	"amstrack/internal/stream"
)

const (
	checkpointFile = "checkpoint.blob"
	logPrefix      = "rel-"
	logSuffix      = ".oplog"
)

// relFileName maps a relation name and log epoch to the first log
// segment. Hex keeps arbitrary names filesystem-safe and the mapping
// invertible; the epoch tag is what makes checkpointing crash-safe —
// recovery replays only logs at or beyond the checkpoint's own epoch, so
// a log the checkpoint already absorbed (older epoch, left behind by a
// crash mid-compaction) can never be double-applied.
func relFileName(name string, epoch uint64) string {
	return fmt.Sprintf("%s%s-e%d%s", logPrefix, hex.EncodeToString([]byte(name)), epoch, logSuffix)
}

// segFileName maps (name, epoch, seq) to a log segment file. Segment 0
// keeps the historical single-file name, so logs written before segment
// rolling existed recover unchanged; later segments carry an -s<seq>
// tag and recovery replays them in sequence order.
func segFileName(name string, epoch uint64, seq int) string {
	if seq == 0 {
		return relFileName(name, epoch)
	}
	return fmt.Sprintf("%s%s-e%d-s%d%s", logPrefix, hex.EncodeToString([]byte(name)), epoch, seq, logSuffix)
}

// relNameFromFile inverts segFileName; ok is false for foreign files.
func relNameFromFile(file string) (name string, epoch uint64, seq int, ok bool) {
	if !strings.HasPrefix(file, logPrefix) || !strings.HasSuffix(file, logSuffix) {
		return "", 0, 0, false
	}
	body := strings.TrimSuffix(strings.TrimPrefix(file, logPrefix), logSuffix)
	hexName, tail, found := strings.Cut(body, "-e")
	if !found {
		return "", 0, 0, false
	}
	raw, err := hex.DecodeString(hexName)
	if err != nil || len(raw) == 0 {
		return "", 0, 0, false
	}
	epochTag, seqTag, hasSeq := strings.Cut(tail, "-s")
	epoch, err = strconv.ParseUint(epochTag, 10, 64)
	if err != nil {
		return "", 0, 0, false
	}
	if hasSeq {
		s, err := strconv.Atoi(seqTag)
		if err != nil || s < 1 {
			return "", 0, 0, false
		}
		seq = s
	}
	return string(raw), epoch, seq, true
}

// segWriter is the append state of one epoch's segment sequence: the
// open handle of the current segment plus the numbering that names the
// next one.
type segWriter struct {
	epoch uint64
	seq   int   // current segment number
	count int64 // records in the current segment
	path  string
	f     oplog.File
	w     *oplog.Writer
}

// relLog is the durable half of a relation. In in-memory engines every
// method is a cheap no-op (cur == nil). appendGroupTagged leaves
// flushing to the group-commit policy (osFlush), so the kernel owns an
// op once its group is flushed; fsync happens at Sync, Checkpoint, Close,
// and on every segment roll. Write errors are sticky: once an append
// fails, later ops are not logged (they would be out of order) and the
// error surfaces on Err, Sync, and Checkpoint.
//
// With SegmentOps > 0 the log is a sequence of numbered segment files,
// each capped at SegmentOps records: full segments are fsynced and
// closed, appends continue on the next segment, and recovery replays the
// segments in order. Rolling bounds the size of any single log file (and
// any single recovery read) between checkpoints, and pings onRoll so a
// segment-count-triggered background checkpointer can react.
//
// During a checkpoint's epoch fence the log is briefly SPLIT:
// next holds the forked next-epoch writer, and tagged appends route by
// their epoch tag — ops applied before a shard's fence flip land in cur,
// ops after it in next. promote retires cur once every shard has
// flipped.
type relLog struct {
	mu     sync.Mutex
	fs     oplog.FS
	dir    string
	name   string
	segOps int64 // roll threshold in records; 0 disables rolling
	cur    *segWriter
	next   *segWriter // non-nil only inside an epoch-fence window
	sticky error
	onRoll func() // segment-roll notification; set once at relation build
}

// create opens a fresh (truncated) segment-0 log for a newly defined
// relation at the given epoch. No-op when dir is empty.
func (l *relLog) create(fsys oplog.FS, dir, name string, epoch uint64, segOps int64) error {
	if dir == "" {
		return nil
	}
	path := filepath.Join(dir, segFileName(name, epoch, 0))
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("engine: create oplog: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fs, l.dir, l.name, l.segOps = fsys, dir, name, segOps
	l.cur = &segWriter{epoch: epoch, path: path, f: f, w: oplog.NewWriter(f)}
	l.next, l.sticky = nil, nil
	return nil
}

// attach binds an already-positioned append handle (recovery): the open
// file is segment seq of the given epoch and holds count records.
func (l *relLog) attach(f oplog.File, fsys oplog.FS, dir, name string, epoch uint64, seq int, count, segOps int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fs, l.dir, l.name, l.segOps = fsys, dir, name, segOps
	l.cur = &segWriter{
		epoch: epoch, seq: seq, count: count,
		path: filepath.Join(dir, segFileName(name, epoch, seq)),
		f:    f, w: oplog.NewWriter(f),
	}
	l.next, l.sticky = nil, nil
}

// rollLocked finishes sw's current segment (flush + fsync + close) and
// opens the next one. Caller holds l.mu.
func (l *relLog) rollLocked(sw *segWriter) error {
	if err := sw.w.Flush(); err != nil {
		return err
	}
	if err := sw.f.Sync(); err != nil {
		return err
	}
	if err := sw.f.Close(); err != nil {
		return err
	}
	sw.seq++
	path := filepath.Join(l.dir, segFileName(l.name, sw.epoch, sw.seq))
	f, err := l.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	sw.f, sw.path, sw.w, sw.count = f, path, oplog.NewWriter(f), 0
	if l.onRoll != nil {
		l.onRoll()
	}
	return nil
}

// appendToLocked writes ops to sw, rolling segments as they fill. Caller
// holds l.mu and has checked cur and sticky.
func (l *relLog) appendToLocked(sw *segWriter, ops []stream.Op) error {
	for len(ops) > 0 {
		if l.segOps > 0 && sw.count >= l.segOps {
			if err := l.rollLocked(sw); err != nil {
				return err
			}
		}
		n := int64(len(ops))
		if l.segOps > 0 && n > l.segOps-sw.count {
			n = l.segOps - sw.count
		}
		if err := sw.w.AppendGroup(ops[:n]); err != nil {
			return err
		}
		sw.count += n
		ops = ops[n:]
	}
	return nil
}

// appendGroupTagged appends a batch WITHOUT flushing to the OS — the
// log writer's group commit. epoch is the log epoch the ops were
// applied under (the absorber's fence state): during a split window,
// ops at or beyond the forked epoch go to the next-epoch writer, so the
// retiring epoch's segments hold exactly the ops the fence snapshot
// covers. The records become OS-owned at the next osFlush (flush
// policy), sync, roll, or close.
func (l *relLog) appendGroupTagged(ops []stream.Op, epoch uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == nil || l.sticky != nil {
		return
	}
	sw := l.cur
	if l.next != nil && epoch >= l.next.epoch {
		sw = l.next
	}
	if err := l.appendToLocked(sw, ops); err != nil {
		l.sticky = fmt.Errorf("engine: oplog append: %w", err)
	}
}

// osFlush pushes pending appended records to the OS (group commit),
// covering both writers of a split window.
func (l *relLog) osFlush() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == nil || l.sticky != nil {
		return
	}
	err := l.cur.w.Flush()
	if err == nil && l.next != nil {
		err = l.next.w.Flush()
	}
	if err != nil {
		l.sticky = fmt.Errorf("engine: oplog flush: %w", err)
	}
}

func (l *relLog) err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sticky
}

// poison sets the sticky error (post-fence checkpoint failures): further
// appends are refused loudly rather than acknowledged un-durable.
func (l *relLog) poison(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == nil || l.sticky != nil {
		return
	}
	l.sticky = err
}

// sync flushes and fsyncs the log (both writers of a split window).
func (l *relLog) sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == nil {
		return nil
	}
	if l.sticky != nil {
		return l.sticky
	}
	if err := l.cur.w.Flush(); err != nil {
		return err
	}
	if err := l.cur.f.Sync(); err != nil {
		return err
	}
	if l.next != nil {
		if err := l.next.w.Flush(); err != nil {
			return err
		}
		return l.next.f.Sync()
	}
	return nil
}

// liveSegments counts the on-disk segment files this log currently owns.
func (l *relLog) liveSegments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	if l.cur != nil {
		n += l.cur.seq + 1
	}
	if l.next != nil {
		n += l.next.seq + 1
	}
	return n
}

// fork opens the next-epoch segment-0 writer alongside the current one —
// the first step of a pause-free checkpoint. Nothing routes to it until
// an absorber's fence flip tags ops with the new epoch, so a failed fork
// aborts cleanly via unfork.
func (l *relLog) fork(newEpoch uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == nil {
		return nil
	}
	if l.sticky != nil {
		return l.sticky
	}
	if l.next != nil {
		return fmt.Errorf("engine: log already forked to epoch %d", l.next.epoch)
	}
	path := filepath.Join(l.dir, segFileName(l.name, newEpoch, 0))
	f, err := l.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("engine: fork oplog to epoch %d: %w", newEpoch, err)
	}
	l.next = &segWriter{epoch: newEpoch, path: path, f: f, w: oplog.NewWriter(f)}
	return nil
}

// unfork abandons a fork before any fence flip has routed ops to it.
func (l *relLog) unfork() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.next == nil {
		return
	}
	_ = l.next.f.Close()
	_ = l.fs.Remove(l.next.path)
	l.next = nil
}

// promote seals the retiring epoch (flush + fsync + close — after the
// fence, nothing routes there anymore) and makes the forked writer
// current. It returns the retired segment paths so the caller can unlink
// them once the covering checkpoint has renamed into place.
func (l *relLog) promote() ([]string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == nil {
		return nil, nil
	}
	if l.next == nil {
		return nil, errors.New("engine: promote without fork")
	}
	old := l.cur
	var err error
	if l.sticky != nil {
		err = l.sticky
	} else if err = old.w.Flush(); err == nil {
		err = old.f.Sync()
	}
	if cerr := old.f.Close(); err == nil {
		err = cerr
	}
	absorbed := make([]string, 0, old.seq+1)
	for s := 0; s <= old.seq; s++ {
		absorbed = append(absorbed, filepath.Join(l.dir, segFileName(l.name, old.epoch, s)))
	}
	l.cur, l.next = l.next, nil
	if err != nil {
		if l.sticky == nil {
			l.sticky = fmt.Errorf("engine: seal epoch %d: %w", old.epoch, err)
		}
		return nil, l.sticky
	}
	return absorbed, nil
}

// remove closes and deletes every log segment (relation dropped),
// including a split window's forked segments.
func (l *relLog) remove() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == nil {
		return nil
	}
	err := l.cur.f.Close()
	for s := 0; s <= l.cur.seq; s++ {
		if rmErr := l.fs.Remove(filepath.Join(l.dir, segFileName(l.name, l.cur.epoch, s))); err == nil {
			err = rmErr
		}
	}
	if l.next != nil {
		if cerr := l.next.f.Close(); err == nil {
			err = cerr
		}
		for s := 0; s <= l.next.seq; s++ {
			if rmErr := l.fs.Remove(filepath.Join(l.dir, segFileName(l.name, l.next.epoch, s))); err == nil {
				err = rmErr
			}
		}
	}
	l.cur, l.next = nil, nil
	return err
}

// close flushes and closes the handles without deleting the files.
func (l *relLog) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == nil {
		return nil
	}
	var err error
	if l.sticky != nil {
		err = l.sticky
	} else if err = l.cur.w.Flush(); err == nil {
		err = l.cur.f.Sync()
	}
	if cerr := l.cur.f.Close(); err == nil {
		err = cerr
	}
	if l.next != nil {
		if cerr := l.next.f.Close(); err == nil {
			err = cerr
		}
	}
	l.cur, l.next = nil, nil
	return err
}

// Open creates or recovers a durable engine rooted at opts.Dir: load the
// checkpoint blob if present, then for every relation log in the
// directory replay the ops appended since that checkpoint, truncating a
// torn final record to its clean boundary. Family-shape options
// (SignatureWords, Seed, scheme, sketch) come from the checkpoint when
// one exists — opts must agree on SignatureWords and Seed so a
// misconfigured reopen fails loudly instead of silently re-keying.
//
// Logs may span SEVERAL epochs at or beyond the checkpoint's: a crash
// inside a pause-free checkpoint's fence window leaves the retiring
// epoch's segments next to the freshly forked ones. Linearity makes the
// replay order irrelevant, so recovery replays them all, then
// re-baselines the directory (fresh logs at a new epoch, a covering
// checkpoint, old segments deleted) so the invariant "one live epoch per
// relation" holds again before the engine is handed back.
func Open(opts Options) (*Engine, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	if opts.Dir == "" {
		return nil, errors.New("engine: Open requires Options.Dir (use New for an in-memory engine)")
	}
	fsys := opts.FS
	if err := fsys.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}

	var e *Engine
	ckPath := filepath.Join(opts.Dir, checkpointFile)
	switch data, err := fsys.ReadFile(ckPath); {
	case err == nil:
		e, err = unmarshalEngine(data, opts)
		if err != nil {
			return nil, err
		}
	case errors.Is(err, fs.ErrNotExist):
		if e, err = newEngine(opts); err != nil {
			return nil, err
		}
	default:
		return nil, err
	}
	// Every error return below abandons the half-recovered engine; stop
	// the absorber pipelines of whatever relations it carries so a
	// caller retrying Open (corrupt segment, bad options) cannot
	// accumulate leaked goroutines.
	recovered := false
	defer func() {
		if !recovered {
			for _, r := range e.rels {
				r.discard()
			}
		}
	}()
	if e.opts.SignatureWords != opts.SignatureWords || e.opts.Seed != opts.Seed {
		return nil, fmt.Errorf("engine: checkpoint family (k=%d seed=%d) does not match options (k=%d seed=%d)",
			e.opts.SignatureWords, e.opts.Seed, opts.SignatureWords, opts.Seed)
	}

	entries, err := fsys.ReadDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	// A log file of ANY epoch marks the relation as existing. Epochs
	// below the checkpoint's are leftovers of a crash between the
	// checkpoint rename and compaction — their ops are inside the
	// checkpoint already, so they are deleted, never replayed. Epochs at
	// or beyond the checkpoint's carry unabsorbed ops (several epochs at
	// once when a crash landed inside a fence window); each epoch may
	// span several numbered segments, replayed in sequence order.
	pending := map[string]map[uint64]map[int]string{} // name → epoch → seq → path
	present := map[string]bool{}
	maxEpoch := e.epoch.Load()
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		name, epoch, seq, ok := relNameFromFile(ent.Name())
		if !ok {
			continue
		}
		path := filepath.Join(opts.Dir, ent.Name())
		present[name] = true
		if epoch < e.epoch.Load() {
			if err := fsys.Remove(path); err != nil {
				return nil, fmt.Errorf("engine: remove absorbed log %s: %w", path, err)
			}
			continue
		}
		if pending[name] == nil {
			pending[name] = map[uint64]map[int]string{}
		}
		if pending[name][epoch] == nil {
			pending[name][epoch] = map[int]string{}
		}
		pending[name][epoch][seq] = path
		if epoch > maxEpoch {
			maxEpoch = epoch
		}
	}
	// A checkpointed relation without any log file was dropped after that
	// checkpoint: keep it dropped (and stop its just-started pipeline).
	for name := range e.rels {
		if !present[name] {
			e.rels[name].discard()
			delete(e.rels, name)
		}
	}
	names := make([]string, 0, len(present))
	for name := range present {
		names = append(names, name)
	}
	sort.Strings(names)
	rebase := maxEpoch > e.epoch.Load()
	var replayed []string // every pending segment path, for rebase cleanup
	for _, name := range names {
		r := e.rels[name]
		if r == nil {
			// Defined after the last checkpoint: rebuild purely from its
			// log, with the legacy single-attribute schema — non-legacy
			// DefineSchema checkpoints immediately, so a schema'd relation
			// always arrives here through the checkpoint branch above.
			if r, err = e.newRelation(name, Schema{Attrs: []string{legacyAttr}}); err != nil {
				return nil, err
			}
			e.rels[name] = r
		}
		epochs := make([]uint64, 0, len(pending[name]))
		for ep := range pending[name] {
			epochs = append(epochs, ep)
		}
		sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
		var lastPaths []string
		var lastCount int64
		for _, ep := range epochs {
			// Segments must be contiguous from 0: appends only ever roll
			// onto seq+1, so a gap means a deleted or lost file.
			segs := pending[name][ep]
			paths := make([]string, len(segs))
			for s := 0; s < len(segs); s++ {
				p, ok := segs[s]
				if !ok {
					return nil, fmt.Errorf("engine: relation %q: epoch %d log segment %d missing (have %d segments)",
						name, ep, s, len(segs))
				}
				paths[s] = p
			}
			for i, p := range paths {
				// A torn tail is legal only in each epoch's LAST segment —
				// the one being appended (or sealed) when the crash hit;
				// earlier segments were fsynced at their roll.
				count, err := r.replaySegment(fsys, p, i == len(paths)-1)
				if err != nil {
					return nil, fmt.Errorf("engine: relation %q: epoch %d segment %d: %w", name, ep, i, err)
				}
				lastCount = count
			}
			replayed = append(replayed, paths...)
			lastPaths = paths
		}
		if rebase {
			continue // fresh logs are created below, at the rebased epoch
		}
		if len(epochs) > 0 {
			last := lastPaths[len(lastPaths)-1]
			af, err := fsys.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, fmt.Errorf("engine: relation %q: %w", name, err)
			}
			r.log.attach(af, fsys, opts.Dir, name, e.epoch.Load(), len(lastPaths)-1, lastCount, opts.SegmentOps)
		} else if err := r.log.create(fsys, opts.Dir, name, e.epoch.Load(), opts.SegmentOps); err != nil {
			return nil, fmt.Errorf("engine: relation %q: %w", name, err)
		}
	}
	if rebase {
		// Re-baseline: fresh logs first (a relation with no log file reads
		// as dropped, so logs must exist before the blob commits), then the
		// covering checkpoint, then the replayed segments. A crash between
		// any two steps recovers: before the rename the old blob replays
		// the same epochs again; after it the leftovers are sub-epoch
		// garbage the classification above deletes.
		newEpoch := maxEpoch + 1
		for _, name := range names {
			if err := e.rels[name].log.create(fsys, opts.Dir, name, newEpoch, opts.SegmentOps); err != nil {
				return nil, fmt.Errorf("engine: relation %q: rebase: %w", name, err)
			}
		}
		data, err := e.marshalCuts(newEpoch, e.cutAll())
		if err != nil {
			return nil, fmt.Errorf("engine: rebase checkpoint: %w", err)
		}
		if err := writeFileAtomic(fsys, ckPath, data); err != nil {
			return nil, fmt.Errorf("engine: rebase checkpoint: %w", err)
		}
		e.epoch.Store(newEpoch)
		for _, p := range replayed {
			if err := fsys.Remove(p); err != nil {
				return nil, fmt.Errorf("engine: remove rebased log %s: %w", p, err)
			}
		}
	}
	recovered = true
	e.startCheckpointer()
	return e, nil
}

// replaySegment feeds one segment's records to the synopses, truncating
// a torn tail when allowed. Returns the clean record count. Segments are
// bounded by the roll threshold, so a whole-file read keeps the recovery
// I/O shape simple and lets the fault seam interpose cleanly.
func (r *Relation) replaySegment(fsys oplog.FS, path string, allowTorn bool) (int64, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return 0, err
	}
	size := int64(len(data))
	lr := oplog.NewReader(bytes.NewReader(data))
	var cols *chainCols
	if r.schema.hasChain() {
		cols = newChainCols(r.arity)
	}
	torn := false
replay:
	for {
		op, err := lr.Next()
		switch {
		case err == io.EOF:
			break replay
		case errors.Is(err, io.ErrUnexpectedEOF):
			if !allowTorn {
				return 0, errors.New("replay: torn record in a sealed segment")
			}
			torn = true
			break replay
		case errors.Is(err, oplog.ErrCorrupt) &&
			allowTorn && size-lr.Offset() < oplog.MinRecordSize:
			// A tail too short to hold ANY record is a torn write, even
			// when its bytes do not decode as a record prefix (records
			// are variable-length now, so an arbitrary cut can land on
			// an undecodable first byte). Mid-log corruption — a bad
			// record with a whole record's worth of bytes after the last
			// clean one — stays fatal.
			torn = true
			break replay
		case err != nil:
			return 0, fmt.Errorf("replay: %w", err)
		}
		r.applyRecovered(op, cols)
	}
	if torn {
		if err := fsys.Truncate(path, lr.Offset()); err != nil {
			return 0, fmt.Errorf("truncate torn tail: %w", err)
		}
	}
	return lr.Count(), nil
}

// applyRecovered feeds one logged op to the synopses. Recovery is
// single-threaded, so no locks are taken; Query ops (legal in hand-built
// logs) change nothing. Chain synopses see the op only when the record's
// arity matches the schema — the replay image of the ingest fan-out.
// Records of a different arity (a pre-schema log replayed into a
// re-declared relation) apply their primary attribute as single-attribute
// ops, per the upgrade contract. cols is the replay's reusable chain
// batch (nil when the schema declares no chains); each record goes
// through it as a batch of one.
func (r *Relation) applyRecovered(op stream.Op, cols *chainCols) {
	if op.Kind != stream.Insert && op.Kind != stream.Delete {
		return
	}
	del := op.Kind == stream.Delete
	s := r.shardOf(op.Value)
	s.ops++ // one logged record = one mutation op, exactly as ingested
	if del {
		_ = s.sig.Delete(op.Value)
	} else {
		s.sig.Insert(op.Value)
	}
	if s.sketch != nil {
		if del {
			_ = s.sketch.Delete(op.Value)
		} else {
			s.sketch.Insert(op.Value)
		}
	}
	if s.hh != nil {
		// Same per-op order as the live paths (the log is written in
		// apply order), so the replayed table is bit-identical.
		if del {
			s.hh.Delete(op.Value)
		} else {
			s.hh.Insert(op.Value)
		}
	}
	if s.chain != nil && 1+len(op.Rest) == r.arity {
		cols.reset()
		cols.add(op.Value, op.Rest, del)
		s.chain.apply(&r.plan, cols)
	}
}

// Dir returns the durability directory ("" for in-memory engines).
func (e *Engine) Dir() string { return e.opts.Dir }

// Checkpoint cuts a durable snapshot of the whole engine through the
// pause-free epoch fence — ingest keeps flowing the entire time. The blob
// is written atomically (tmp + fsync + rename) and the retired log
// segments are compacted afterwards. Returns the blob size on success.
// The engine lock is held shared, so lookups and reads go on while the
// blob is written; only Define, Drop, Import and Merge wait for it.
func (e *Engine) Checkpoint() (int, error) {
	if e.opts.Dir == "" {
		return 0, errors.New("engine: in-memory engine has no checkpoint directory")
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.checkpointLocked()
}

// checkpointLocked is Checkpoint under an already-held engine lock:
// shared plus ckptMu from Checkpoint, exclusive from Define, Drop,
// Import and Merge, which persist structural changes. It records the
// outcome for DurabilityStats either way.
func (e *Engine) checkpointLocked() (int, error) {
	n, err := e.checkpointFenced()
	e.recordCheckpoint(n, err)
	return n, err
}

// checkpointFenced is the pause-free checkpoint. Ingest never stops: each
// relation is cut at an epoch fence (ingester.cut with a flip), and ops
// applied after the flip are group-committed to a pre-forked next-epoch
// log. The fence flip is the point of no return — a
// failure after it poisons the logs (the in-memory state and the on-disk
// epochs no longer share a committed baseline; a restart recovers
// cleanly via the multi-epoch replay in Open).
func (e *Engine) checkpointFenced() (int, error) {
	names := make([]string, 0, len(e.rels))
	for n := range e.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	// Surface sticky append errors before committing to a fence.
	for _, n := range names {
		if err := e.rels[n].log.err(); err != nil {
			return 0, err
		}
	}
	newEpoch := e.epoch.Load() + 1
	forked := make([]string, 0, len(names))
	for _, n := range names {
		if err := e.rels[n].log.fork(newEpoch); err != nil {
			for _, m := range forked {
				e.rels[m].log.unfork()
			}
			return 0, fmt.Errorf("engine: relation %q: %w", n, err)
		}
		forked = append(forked, n)
	}
	fail := func(stage string, err error) (int, error) {
		perr := fmt.Errorf("engine: checkpoint abandoned after epoch fence (%s): %w", stage, err)
		for _, n := range names {
			e.rels[n].log.poison(perr)
		}
		return 0, perr
	}
	cuts := make(map[string]RelationBundle, len(names))
	for _, n := range names {
		c, live := e.rels[n].ing.cut(true, newEpoch)
		if !live {
			return fail("snapshot", errors.New("engine: ingest pipeline stopped during checkpoint fence"))
		}
		cuts[n] = c
	}
	var absorbed []string
	for _, n := range names {
		paths, err := e.rels[n].log.promote()
		if err != nil {
			return fail("promote", err)
		}
		absorbed = append(absorbed, paths...)
	}
	data, err := e.marshalCuts(newEpoch, cuts)
	if err != nil {
		return fail("marshal", err)
	}
	if err := writeFileAtomic(e.fs, filepath.Join(e.opts.Dir, checkpointFile), data); err != nil {
		return fail("commit", err)
	}
	e.epoch.Store(newEpoch)
	// Compaction: the rename above committed the checkpoint, so the
	// retired segments are garbage — unlinks go strictly AFTER it, and a
	// crash anywhere in this loop leaves only sub-epoch files the next
	// Open deletes unread. A failure here does NOT poison: the engine is
	// fully consistent, only the cleanup is owed.
	var compErr error
	if err := e.fs.Crash("ckpt-post-rename-pre-unlink"); err != nil {
		compErr = err
	}
	for i, p := range absorbed {
		if compErr == nil {
			if err := e.fs.Remove(p); err != nil {
				compErr = err
			}
		}
		if i == 0 && compErr == nil {
			if err := e.fs.Crash("compact-mid"); err != nil {
				compErr = err
			}
		}
	}
	if compErr != nil {
		return len(data), fmt.Errorf("engine: compact absorbed segments: %w", compErr)
	}
	return len(data), nil
}

// writeFileAtomic writes data via a temp file, fsyncs it, renames it over
// path, and fsyncs the directory, so a crash leaves either the old or the
// new checkpoint — never a torn one. The named crash points bracket the
// two durability edges of the protocol.
func writeFileAtomic(fsys oplog.FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = fsys.Crash("ckpt-pre-fsync")
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Crash("ckpt-post-fsync-pre-rename")
	}
	if err != nil {
		_ = fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		_ = fsys.Remove(tmp)
		return err
	}
	_ = fsys.SyncDir(filepath.Dir(path))
	return nil
}

// Sync flushes and fsyncs every relation log (the fsync barrier between
// checkpoints), surfacing any sticky append error. Relations are drained
// first, so the barrier covers every op staged before the call.
func (e *Engine) Sync() error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, r := range e.rels {
		r.ing.drain()
		if err := r.log.sync(); err != nil {
			return fmt.Errorf("engine: relation %q: %w", r.name, err)
		}
	}
	return nil
}

// Drain flushes every relation's staged ops through the absorbers and
// the group-commit log writer and reports the first sticky error — the
// engine-wide read-your-writes and error-visibility barrier.
func (e *Engine) Drain() error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var first error
	for _, r := range e.rels {
		if err := r.Drain(); err != nil && first == nil {
			first = fmt.Errorf("engine: relation %q: %w", r.name, err)
		}
	}
	return first
}

// Close stops the background checkpointer, drains and stops each
// relation's absorber pipeline, then flushes and closes every relation
// log. The engine's in-memory synopses stay queryable; further ingest
// after Close is a caller bug and is discarded.
func (e *Engine) Close() error {
	e.stopCheckpointer()
	e.mu.Lock()
	defer e.mu.Unlock()
	var first error
	for _, r := range e.rels {
		r.ing.stop()
		if err := r.log.close(); err != nil && first == nil {
			first = fmt.Errorf("engine: relation %q: %w", r.name, err)
		}
	}
	return first
}
