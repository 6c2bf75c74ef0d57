// Durability: the §5 warehouse recipe. Each relation's sequencer logs
// every batch whole, in arrival order, before any absorber applies it —
// one checksummed version-3 record per batch (internal/oplog), in one
// segment; only a library batch of more than oplog.MaxRecordVals values
// becomes several records — and group-commits the records:
//
//	sequencer ──AppendRun──▶ segment writer ──roll between records──▶ next segment
//	                         (a 4 KiB buffer,   once the segment holds
//	                          pushed to the OS  SegmentOps rows
//	                          when full and at
//	                          a barrier)
//
// A torn write therefore keeps all of a batch or none of it: every
// amswire BATCH frame, HTTP ingest and router sub-batch within the bound
// is one record.
//
// Checkpoint serializes the whole engine into one blob and retires the
// logs; Open recovers by loading the checkpoint and replaying whatever
// each log accumulated since — version-1, -2 and -3 records alike, each
// shard's rows in log order, through the absorbers' apply — cutting off a
// torn tail at the last clean record boundary, exactly the failure a
// crash mid-append leaves behind. A torn batch record drops the whole
// batch: it may have been applied live, but it was never acknowledged
// durable.
//
// The oplog file doubles as the relation's existence marker: Define
// creates it, Drop deletes it, and recovery only resurrects relations
// whose file is present — so a drop stays dropped even when an older
// checkpoint still carries the relation.
//
// Checkpoints are PAUSE-FREE: the engine forks every log onto a
// next-epoch file, then cuts each relation at an epoch fence — one
// barrier through the relation's sequencer, which makes the forked
// writer current before it parks the absorbers. Every batch sequenced
// before the fence lies in the retiring epoch and is applied when the
// cut reads the shards; every batch after it goes to the new epoch.
// Writers never wait beyond queue backpressure. Once the blob (built
// from the cuts) renames into place, the old-epoch segments are garbage
// and compaction unlinks them. Crash ordering: rename commits first,
// unlinks follow, so recovery sees either replayable segments or an
// already-covering checkpoint — never a gap. A crash mid-fence leaves
// segments of an epoch BEYOND the checkpoint's; recovery replays every
// epoch at or above the checkpoint's (linearity makes the order
// irrelevant) and re-baselines the directory onto a fresh epoch.
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
	count int64 // rows in the current segment
	path  string
	f     oplog.File
	w     *oplog.Writer
}

// relLog is the durable half of a relation. In in-memory engines every
// method is a cheap no-op (cur == nil). appendRun leaves records in the
// writer's buffer, which goes to the OS when it fills and at the
// sequencer's barriers (osFlush), so the kernel owns an op once a
// barrier has passed it; fsync happens at Sync, Checkpoint, Close, and
// on every segment roll. Write errors are sticky: once an append fails,
// later ops are not logged (they would be out of order) and the error
// surfaces on Err, Sync, and Checkpoint.
//
// With SegmentOps > 0 the log is a sequence of numbered segment files.
// A segment rolls between records once it holds SegmentOps rows, so it
// may exceed SegmentOps by less than one record: full segments are
// fsynced and closed, appends continue on the next segment, and recovery
// replays the segments in order. Rolling bounds the size of any single
// log file (and any single recovery read) between checkpoints, and pings
// onRoll so a segment-count-triggered background checkpointer can react.
//
// A checkpoint holds two writers for a while: fork opens next, the
// forked next-epoch writer, which the sequencer's fence makes current
// (flip), leaving the retiring epoch's writer in old until promote seals
// it. Appends only ever go to cur.
type relLog struct {
	mu     sync.Mutex
	fs     oplog.FS
	dir    string
	name   string
	segOps int64 // roll threshold in rows; 0 disables rolling
	cur    *segWriter
	next   *segWriter // forked, not yet current: between fork and the fence
	old    *segWriter // retired by the fence, not yet sealed by promote
	sticky error
	onRoll func() // segment-roll notification; set once at relation build
}

// writers lists the open writers: old, cur and next, nil where absent.
func (l *relLog) writers() [3]*segWriter { return [3]*segWriter{l.old, l.cur, l.next} }

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
	l.next, l.old, l.sticky = nil, nil, nil
	return nil
}

// attach binds an already-positioned append handle (recovery): the open
// file is segment seq of the given epoch and holds count rows.
func (l *relLog) attach(f oplog.File, fsys oplog.FS, dir, name string, epoch uint64, seq int, count, segOps int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fs, l.dir, l.name, l.segOps = fsys, dir, name, segOps
	l.cur = &segWriter{
		epoch: epoch, seq: seq, count: count,
		path: filepath.Join(dir, segFileName(name, epoch, seq)),
		f:    f, w: oplog.NewWriter(f),
	}
	l.next, l.old, l.sticky = nil, nil, nil
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

// appendToLocked is the one loop that cuts a run into records: one record
// of the whole run, or, for a library batch of more than
// oplog.MaxRecordVals values, records of at most that many. It rolls sw
// onto the next segment between records, never inside one, once the
// current segment holds segOps rows. Caller holds l.mu and has checked
// cur and sticky.
func (l *relLog) appendToLocked(sw *segWriter, rn oplog.Run) error {
	most := oplog.MaxRecordVals - oplog.MaxRecordVals%rn.Arity
	for vals := rn.Vals; len(vals) > 0; {
		if l.segOps > 0 && sw.count >= l.segOps {
			if err := l.rollLocked(sw); err != nil {
				return err
			}
		}
		rec := oplog.Run{Del: rn.Del, Arity: rn.Arity, Vals: vals[:min(len(vals), most)]}
		if err := sw.w.AppendRun(rec); err != nil {
			return err
		}
		sw.count += int64(rec.Rows())
		vals = vals[len(rec.Vals):]
	}
	return nil
}

// appendRun appends a batch to the current writer WITHOUT flushing to
// the OS — the sequencer's group commit. The records become OS-owned
// when the writer's buffer fills, or at the next osFlush (a barrier, or
// the sequencer's exit), sync, roll, or close.
func (l *relLog) appendRun(rn oplog.Run) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == nil || l.sticky != nil {
		return
	}
	if err := l.appendToLocked(l.cur, rn); err != nil {
		l.sticky = fmt.Errorf("engine: oplog append: %w", err)
	}
}

// osFlush pushes pending appended records to the OS (group commit). Only
// cur ever holds pending records: the sequencer flushes before a fence
// retires it.
func (l *relLog) osFlush() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == nil || l.sticky != nil {
		return
	}
	if err := l.cur.w.Flush(); err != nil {
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

// sync flushes and fsyncs the log: every open writer, so a retired epoch
// not yet sealed is covered too.
func (l *relLog) sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == nil {
		return nil
	}
	if l.sticky != nil {
		return l.sticky
	}
	for _, sw := range l.writers() {
		if sw == nil {
			continue
		}
		if err := sw.w.Flush(); err != nil {
			return err
		}
		if err := sw.f.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// liveSegments counts the on-disk segment files this log currently owns.
func (l *relLog) liveSegments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, sw := range l.writers() {
		if sw != nil {
			n += sw.seq + 1
		}
	}
	return n
}

// fork opens the next-epoch segment-0 writer alongside the current one —
// the first step of a pause-free checkpoint. Nothing goes to it until the
// sequencer's fence makes it current (flip), so a failed fork aborts
// cleanly via unfork.
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

// unfork abandons a fork before its fence.
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

// flip makes the forked next-epoch writer current and retires the old
// one: the sequencer calls it at a checkpoint's fence, after pushing
// every pending record to the OS, so each batch lies wholly in one epoch.
// A log that was not forked stays as it is.
func (l *relLog) flip() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.next != nil {
		l.old, l.cur, l.next = l.cur, l.next, nil
	}
}

// promote seals the epoch the fence retired (flush + fsync + close;
// nothing is appended there after the flip). It returns the retired
// segment paths so the caller can unlink them once the covering
// checkpoint has renamed into place.
func (l *relLog) promote() ([]string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == nil {
		return nil, nil
	}
	if l.old == nil {
		return nil, errors.New("engine: promote without a fence")
	}
	old := l.old
	l.old = nil
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
	if err != nil {
		if l.sticky == nil {
			l.sticky = fmt.Errorf("engine: seal epoch %d: %w", old.epoch, err)
		}
		return nil, l.sticky
	}
	return absorbed, nil
}

// remove closes and deletes every log segment of every open writer
// (relation dropped).
func (l *relLog) remove() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == nil {
		return nil
	}
	var err error
	for _, sw := range l.writers() {
		if sw == nil {
			continue
		}
		if cerr := sw.f.Close(); err == nil {
			err = cerr
		}
		for s := 0; s <= sw.seq; s++ {
			if rmErr := l.fs.Remove(filepath.Join(l.dir, segFileName(l.name, sw.epoch, s))); err == nil {
				err = rmErr
			}
		}
	}
	l.cur, l.next, l.old = nil, nil, nil
	return err
}

// close flushes, fsyncs and closes every open writer without deleting
// the files.
func (l *relLog) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == nil {
		return nil
	}
	err := l.sticky
	for _, sw := range l.writers() {
		if sw == nil {
			continue
		}
		if err == nil {
			if err = sw.w.Flush(); err == nil {
				err = sw.f.Sync()
			}
		}
		if cerr := sw.f.Close(); err == nil {
			err = cerr
		}
	}
	l.cur, l.next, l.old = nil, nil, nil
	return err
}

// Open creates or recovers a durable engine rooted at opts.Dir: load the
// checkpoint blob if present, then for every relation log in the
// directory replay the ops appended since that checkpoint, truncating a
// torn final record to its clean boundary. Family-shape options
// (SignatureWords, Seed, rows, sketch) come from the checkpoint when
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

// replayChunk bounds how many rows replay holds before applying them —
// more only when one record is longer: enough to feed the batch kernels,
// few enough that a segment never sits in memory as decoded rows.
const replayChunk = 4096

// replaySegment feeds one segment's records to the synopses through the
// absorber's apply, truncating a torn tail when allowed. Returns the
// clean row count. Each record's rows join their shard's pending run in
// log order — the order each shard applied them live, which the
// heavy-hitter table needs. A shard's run is applied when a row of
// another kind or arity arrives for it, and every shard's once
// replayChunk rows are pending; version-1 and -2 records arrive as runs of
// one row and coalesce the same way. Query records (legal in hand-built
// logs) change nothing. A segment holds less than one record past the
// roll threshold, so a whole-file read keeps the recovery I/O shape
// simple and lets the fault seam interpose cleanly.
func (r *Relation) replaySegment(fsys oplog.FS, path string, allowTorn bool) (int64, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return 0, err
	}
	size := int64(len(data))
	lr := oplog.NewReader(bytes.NewReader(data))
	buf := newApplyBuf(r.arity)
	pend := make([]oplog.Run, len(r.shards))
	apply := func(i int) {
		if len(pend[i].Vals) > 0 {
			r.shards[i].apply(pend[i], &r.plan, buf)
			pend[i].Vals = pend[i].Vals[:0]
		}
	}
	n := 0 // rows pending since every shard's run was last applied
	torn := false
replay:
	for {
		rn, err := lr.NextRun()
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
			// are variable-length, so an arbitrary cut can land on an
			// undecodable first byte). Mid-log corruption — a bad record
			// with a whole record's worth of bytes after the last clean
			// one — stays fatal.
			torn = true
			break replay
		case err != nil:
			return 0, fmt.Errorf("replay: %w", err)
		}
		a := rn.Arity
		for j := 0; j < len(rn.Vals); j += a {
			i := int(r.shardOf(rn.Vals[j]))
			p := &pend[i]
			if p.Del != rn.Del || p.Arity != a {
				apply(i)
				p.Del, p.Arity = rn.Del, a
			}
			p.Vals = append(p.Vals, rn.Vals[j:j+a]...)
		}
		if n += rn.Rows(); n >= replayChunk {
			for i := range pend {
				apply(i)
			}
			n = 0
		}
	}
	for i := range pend {
		apply(i)
	}
	if torn {
		if err := fsys.Truncate(path, lr.Offset()); err != nil {
			return 0, fmt.Errorf("truncate torn tail: %w", err)
		}
	}
	return lr.Count(), nil
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
// relation is cut at an epoch fence (ingester.cut with fence set), and
// batches sequenced after it are group-committed to a pre-forked
// next-epoch log. The fence is the point of no return — a
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
		c, live := e.rels[n].ing.cut(true, true)
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

// Drain flushes every relation's staged ops through its sequencer's
// group-commit log and its absorbers and reports the first sticky error
// — the engine-wide read-your-writes and error-visibility barrier.
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
