package collection

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"mhxquery/internal/core"
	"mhxquery/internal/store"
	"mhxquery/internal/wal"
	"mhxquery/internal/xquery"
)

// walFile is the per-collection write-ahead log filename.
const walFile = "wal.log"

// docState tracks, per document, how far the on-disk snapshot lags the
// log. Guarded by Collection.mu.
type docState struct {
	lastSeq      uint64 // highest log sequence applied to the live version
	snapSeq      uint64 // coverage recorded in the on-disk image
	pendingRecs  int    // records since the last snapshot
	pendingBytes int64  // framed bytes since the last snapshot
}

// RecoveryStats describes what Open had to do to bring a durable
// collection back: how much was already in snapshots, how much was
// replayed from the log, and what damage was tolerated.
type RecoveryStats struct {
	// Snapshots is the number of document images loaded.
	Snapshots int
	// Replayed is the number of update records re-applied from the log.
	Replayed int
	// ReplayedInPlace counts the replayed records that copied no
	// hierarchy: each document's records are applied to one private
	// working version, which edits its own copies in place.
	ReplayedInPlace int
	// Skipped is the number of log records already covered by snapshots.
	Skipped int
	// Tombstones is the number of deletion records processed.
	Tombstones int
	// TornTailBytes is the size of the interrupted final write truncated
	// from the log tail (0 after a clean shutdown).
	TornTailBytes int
	// CheckpointDocs is the number of documents re-snapshotted to
	// compact the log away at the end of recovery.
	CheckpointDocs int
	// Elapsed is the wall time recovery took: ReplayElapsed (loading
	// and re-applying the log) plus CheckpointElapsed (writing and
	// syncing the images, and starting a fresh log).
	Elapsed           time.Duration
	ReplayElapsed     time.Duration
	CheckpointElapsed time.Duration
}

// Recovery returns what Open had to replay (zero value for memory-only
// collections).
func (c *Collection) Recovery() RecoveryStats { return c.recovery }

// WALStats exposes the log's lifetime counters (zero value when the
// collection has no WAL).
func (c *Collection) WALStats() wal.Stats {
	if c.wal == nil {
		return wal.Stats{}
	}
	return c.wal.Stats()
}

// imagePath returns the snapshot path for a document name.
func (c *Collection) imagePath(name string) string {
	return filepath.Join(c.dir, name+imageExt)
}

// recover replays the write-ahead log over the loaded snapshots,
// re-snapshots every document the log was ahead of, and swaps in a
// fresh empty log — so recovery is idempotent: a crash during recovery
// just replays again. Called from Open with the collection still
// private to the caller (no locking).
func (c *Collection) recover(opts Options) error {
	start := time.Now()
	maxSeq := uint64(0)
	for _, st := range c.logState {
		if st.snapSeq > maxSeq {
			maxSeq = st.snapSeq
		}
	}
	walPath := filepath.Join(c.dir, walFile)
	recs, torn, err := wal.Load(c.fs, walPath)
	if err != nil {
		return fmt.Errorf("collection: %w", err)
	}
	c.recovery.Snapshots = len(c.docs)
	c.recovery.TornTailBytes = torn

	// Latest tombstone per name: an update record older than the
	// document's deletion never needs applying (a later re-Put would
	// carry a snapshot covering it anyway).
	tomb := map[string]uint64{}
	for _, r := range recs {
		if r.Kind == wal.Tombstone {
			tomb[r.Name] = r.Seq
		}
	}
	replayed := map[string]bool{}
	for _, r := range recs {
		if r.Seq > maxSeq {
			maxSeq = r.Seq
		}
		switch r.Kind {
		case wal.Tombstone:
			c.recovery.Tombstones++
			if st, ok := c.logState[r.Name]; ok && st.snapSeq < r.Seq {
				c.dropDoc(r.Name)
				delete(c.logState, r.Name)
				delete(replayed, r.Name)
			}
		case wal.Update:
			st, ok := c.logState[r.Name]
			if ok && r.Seq <= st.snapSeq || r.Seq < tomb[r.Name] {
				c.recovery.Skipped++
				continue
			}
			if !ok {
				return fmt.Errorf("collection: log record %d updates unknown document %q: %w", r.Seq, r.Name, wal.ErrCorrupt)
			}
			d := c.docs[r.Name]
			if !replayed[r.Name] {
				// The document's first replayed record: its whole run is
				// applied to one private working version, published
				// before the checkpoint.
				d = d.Private()
			}
			if r.Base != d.Rev {
				return fmt.Errorf("collection: log record %d for %q applies to revision %d but the document is at %d: %w",
					r.Seq, r.Name, r.Base, d.Rev, wal.ErrCorrupt)
			}
			u, err := xquery.CompileUpdate(r.Src)
			if err != nil {
				return fmt.Errorf("collection: log record %d for %q: %v: %w", r.Seq, r.Name, err, wal.ErrCorrupt)
			}
			nd, rep, err := u.ApplyContext(context.Background(), d, c.viewUnlocked())
			if err != nil {
				// The batch was acknowledged, so it applied cleanly once;
				// failing now means the snapshot or log is damaged.
				return fmt.Errorf("collection: replaying record %d for %q: %v: %w", r.Seq, r.Name, err, wal.ErrCorrupt)
			}
			c.setDoc(r.Name, nd)
			st.lastSeq = r.Seq
			replayed[r.Name] = true
			c.recovery.Replayed++
			if rep.Stats.HierarchiesCopied == 0 {
				c.recovery.ReplayedInPlace++
			}
		}
	}
	c.recovery.ReplayElapsed = time.Since(start)

	// Checkpoint: persist everything the log was ahead of, then the log
	// itself can start empty. Images are fsynced individually and the
	// directory once, before the log swap — so a crash anywhere in
	// between leaves old-log + some-new-images, which replays to the
	// same state.
	ckpt := time.Now()
	for name := range replayed {
		if err := c.writeImage(name, c.docs[name].Publish(), maxSeq); err != nil {
			return err
		}
		c.logState[name].snapSeq = maxSeq
		c.logState[name].lastSeq = maxSeq
		c.recovery.CheckpointDocs++
	}
	for name := range tomb {
		if _, live := c.docs[name]; !live {
			if err := c.fs.Remove(c.imagePath(name)); err != nil {
				return fmt.Errorf("collection: %w", err)
			}
		}
	}
	if err := c.fs.SyncDir(c.dir); err != nil {
		return fmt.Errorf("collection: %w", err)
	}

	l, err := wal.Create(c.fs, walPath, maxSeq, wal.Options{
		Flush:    opts.FlushWindow,
		Observer: c.metrics,
	})
	if err != nil {
		return err
	}
	c.wal = l
	c.pubSeq = maxSeq
	c.recovery.CheckpointElapsed = time.Since(ckpt)
	c.recovery.Elapsed = time.Since(start)

	c.snapKick = make(chan struct{}, 1)
	c.snapStop = make(chan struct{})
	c.snapDone = make(chan struct{})
	go c.snapshotLoop()
	return nil
}

// viewUnlocked builds a resolver view without taking c.mu, for use
// during Open when the collection is still private.
func (c *Collection) viewUnlocked() *view {
	v := &view{docs: c.docs, names: make([]string, 0, len(c.docs))}
	for name := range c.docs {
		v.names = append(v.names, name)
	}
	sort.Strings(v.names)
	return v
}

// writeImage persists one document snapshot (temp file, file fsync,
// rename). Directory durability is the caller's one SyncDir.
func (c *Collection) writeImage(name string, d *core.Document, snapSeq uint64) error {
	tmp, err := c.encodeTemp(name, d, snapSeq)
	if err != nil {
		return err
	}
	if err := c.fs.Rename(tmp, c.imagePath(name)); err != nil {
		c.fs.Remove(tmp)
		return fmt.Errorf("collection: %w", err)
	}
	return nil
}

// ---- durable write path ---------------------------------------------------

// updateDurable is the WAL-mode commit path: apply under the writer
// lock, append to the log, publish in memory, then release the writer
// lock and wait for the group-commit fsync before acknowledging. The
// wait happens outside updateMu, so concurrent committers pile into
// one fsync batch — that is what group commit buys.
func (c *Collection) updateDurable(ctx context.Context, name, src string, u *xquery.Update) (*core.Document, *xquery.UpdateReport, error) {
	start := time.Now()
	c.updateMu.Lock()
	v := c.view()
	d, err := v.ResolveDoc(name)
	if err != nil {
		c.updateMu.Unlock()
		return nil, nil, fmt.Errorf("collection: %w", err)
	}
	nd, rep, err := u.ApplyContext(ctx, d, v)
	if err != nil {
		c.updateMu.Unlock()
		return nil, nil, err
	}
	commit, err := c.wal.Append(wal.Record{Kind: wal.Update, Name: name, Base: d.Rev, Src: src})
	if err != nil {
		c.updateMu.Unlock()
		return nil, nil, fmt.Errorf("collection: %w", err)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.updateMu.Unlock()
		return nil, nil, fmt.Errorf("collection: closed")
	}
	c.setDoc(name, nd)
	c.pubSeq = commit.Seq()
	st := c.logState[name]
	if st == nil {
		st = &docState{}
		c.logState[name] = st
	}
	st.lastSeq = commit.Seq()
	st.pendingRecs++
	st.pendingBytes += int64(len(src))
	if st.pendingRecs >= c.snapEvery || st.pendingBytes >= c.snapBytes {
		c.snapRequest(name)
	}
	c.mu.Unlock()
	c.updateMu.Unlock()

	if err := commit.Wait(); err != nil {
		// The new version is already visible in memory but is NOT
		// durable: the log is poisoned and refuses further commits
		// rather than risk acknowledging updates it cannot persist.
		return nil, nil, fmt.Errorf("collection: %w", err)
	}
	c.metrics.observeUpdate(start)
	return nd, rep, nil
}

// putDurable registers a whole document in WAL mode. The image itself
// is the durable record: it claims coverage of every log sequence
// assigned so far, so older update records for this name are dead on
// replay. Serialized with updates via updateMu so that claim is sound.
func (c *Collection) putDurable(name string, d *core.Document) (replaced bool, err error) {
	c.updateMu.Lock()
	defer c.updateMu.Unlock()
	seq := c.wal.LastSeq()
	tmp, err := c.encodeTemp(name, d, seq)
	if err != nil {
		return false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		c.fs.Remove(tmp)
		return false, fmt.Errorf("collection: closed")
	}
	if err := c.fs.Rename(tmp, c.imagePath(name)); err != nil {
		c.fs.Remove(tmp)
		return false, fmt.Errorf("collection: %w", err)
	}
	if err := c.fs.SyncDir(c.dir); err != nil {
		return false, fmt.Errorf("collection: %w", err)
	}
	_, replaced = c.docs[name]
	c.setDoc(name, d)
	c.logState[name] = &docState{lastSeq: seq, snapSeq: seq}
	delete(c.snapPending, name)
	return replaced, nil
}

// deleteDurable removes a document in WAL mode: a tombstone record
// makes the deletion durable (and replayable) before the image is
// removed, so a crash in between cannot resurrect the document.
func (c *Collection) deleteDurable(name string) error {
	c.updateMu.Lock()
	defer c.updateMu.Unlock()
	c.mu.Lock()
	d, ok := c.docs[name]
	c.mu.Unlock()
	if !ok {
		return nil
	}
	commit, err := c.wal.Append(wal.Record{Kind: wal.Tombstone, Name: name, Base: d.Rev})
	if err != nil {
		return fmt.Errorf("collection: %w", err)
	}
	c.mu.Lock()
	c.dropDoc(name)
	delete(c.logState, name)
	delete(c.snapPending, name)
	c.pubSeq = commit.Seq()
	c.mu.Unlock()
	if err := commit.Wait(); err != nil {
		return fmt.Errorf("collection: %w", err)
	}
	// The tombstone is durable; removing the image is cleanup that
	// recovery redoes if a crash lands here.
	if err := c.fs.Remove(c.imagePath(name)); err != nil {
		return fmt.Errorf("collection: %w", err)
	}
	if err := c.fs.SyncDir(c.dir); err != nil {
		return fmt.Errorf("collection: %w", err)
	}
	return nil
}

// closeDurable stops the snapshotter (flushing its queue) and closes
// the log (draining pending commits).
func (c *Collection) closeDurable() error {
	close(c.snapStop)
	<-c.snapDone
	return c.wal.Close()
}

// ---- background snapshotter -----------------------------------------------

// snapRequest queues a document for snapshotting. Called with c.mu
// held.
func (c *Collection) snapRequest(name string) {
	c.snapPending[name] = true
	select {
	case c.snapKick <- struct{}{}:
	default:
	}
}

// snapshotLoop is the background snapshotter: it drains the pending
// set, writing each queued document's image, and when every document
// is fully covered it compacts the log away.
func (c *Collection) snapshotLoop() {
	defer close(c.snapDone)
	for {
		select {
		case <-c.snapKick:
			c.drainSnapshots()
		case <-c.snapStop:
			c.drainSnapshots()
			return
		}
	}
}

func (c *Collection) drainSnapshots() {
	for {
		c.mu.Lock()
		var name string
		for n := range c.snapPending {
			name = n
			break
		}
		if name == "" {
			// Nothing queued: if no document has log records beyond its
			// snapshot, the whole log is dead weight — compact it.
			covered := true
			for _, st := range c.logState {
				if st.pendingRecs > 0 {
					covered = false
					break
				}
			}
			pub := c.pubSeq
			c.mu.Unlock()
			if covered {
				// ResetIf re-checks the sequence number under the log's
				// own lock, so a commit racing this compaction simply
				// makes it refuse; the next snapshot retries.
				if ok, err := c.wal.ResetIf(pub); ok {
					c.metrics.logResets.Add(1)
				} else if err != nil {
					c.metrics.snapshotErrs.Add(1)
				}
			}
			return
		}
		delete(c.snapPending, name)
		d := c.docs[name]
		st := c.logState[name]
		if d == nil || st == nil {
			c.mu.Unlock()
			continue
		}
		captured := *st
		c.mu.Unlock()

		// Encode outside every lock: queries and commits proceed while
		// the image is serialized.
		tmp, err := c.encodeTemp(name, d, captured.lastSeq)
		if err != nil {
			c.metrics.snapshotErrs.Add(1)
			continue
		}
		c.mu.Lock()
		if c.docs[name] != d {
			// A newer version (or a fresh Put, or a delete) superseded
			// the capture while we encoded; discard. Its own pending
			// counters will re-trigger a snapshot.
			c.mu.Unlock()
			c.fs.Remove(tmp)
			continue
		}
		err = c.fs.Rename(tmp, c.imagePath(name))
		if err == nil {
			err = c.fs.SyncDir(c.dir)
		}
		if err != nil {
			c.mu.Unlock()
			c.fs.Remove(tmp)
			c.metrics.snapshotErrs.Add(1)
			continue
		}
		// The identity check above means no commit touched the document
		// since the capture, so the snapshot covers everything pending.
		st.snapSeq = captured.lastSeq
		st.pendingRecs = 0
		st.pendingBytes = 0
		c.mu.Unlock()
		c.metrics.snapshots.Add(1)
	}
}

// errIsCorrupt reports whether err is a recognized corruption error
// from either persistence layer.
func errIsCorrupt(err error) bool {
	return errors.Is(err, store.ErrCorrupt) || errors.Is(err, wal.ErrCorrupt)
}
