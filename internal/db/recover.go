package db

import (
	"fmt"

	"tcache/internal/kv"
	"tcache/internal/wal"
)

// RecoveryInfo summarizes what a Recover call restored.
type RecoveryInfo struct {
	// Counter is the restored version counter: no version minted after
	// recovery can collide with one minted before the restart, which is
	// what keeps the edge floors (eq. 1/eq. 2) monotone across crashes.
	Counter uint64
	// SnapshotEntries and Records count what was loaded and replayed.
	SnapshotEntries int
	Records         int
	// Segments is the number of log segments replayed after the
	// snapshot; TornBytes is the size of the discarded torn tail, if
	// the process died mid-append.
	Segments  int
	TornBytes int64
}

// Recover opens a database whose committed state is durable in a
// write-ahead log directory: the newest snapshot is loaded, the tail
// segments are replayed on top (values, versions, and dependency lists
// all survive restarts), and every subsequent commit is appended — and,
// with cfg.WALSync, fsynced — before it is applied.
//
// A torn final record (crash mid-append) is truncated; any other
// corruption fails recovery with an error unwrapping to wal.ErrCorrupt
// rather than silently serving partial state.
//
// Seed is not durable — it exists for experiment scaffolding; durable
// data must be written through transactions.
func Recover(cfg Config, dir string) (*DB, error) {
	d := Open(cfg)
	log, err := wal.Open(dir, wal.Options{
		Sync:        cfg.WALSync,
		SegmentSize: cfg.WALSegmentSize,
		BatchHist:   d.tel.WALBatch,
		FsyncHist:   d.tel.WALFsync,
	})
	if err != nil {
		return nil, fmt.Errorf("db: recover: %w", err)
	}
	info, err := log.Replay(wal.ReplayHandler{
		Snapshot: func(e wal.SnapshotEntry) error {
			d.store.keep(e.Key, kv.Item{Value: e.Value, Version: e.Version, Deps: e.Deps})
			return nil
		},
		Record: func(rec wal.Record) error {
			d.applyRecord(&rec)
			return nil
		},
	})
	if err != nil {
		_ = log.Close()
		return nil, fmt.Errorf("db: recover: %w", err)
	}
	if d.versionC.Load() < info.Counter {
		d.versionC.Store(info.Counter)
	}
	d.wal = log
	d.recovery = RecoveryInfo{
		Counter:         info.Counter,
		SnapshotEntries: info.SnapshotEntries,
		Records:         info.Records,
		Segments:        info.Segments,
		TornBytes:       info.TornBytes,
	}
	d.snapKick = make(chan struct{})
	d.snapQuit = make(chan struct{})
	d.snapDone = make(chan struct{})
	go d.snapshotWorker()
	return d, nil
}

// Recovery reports what the Recover call that opened this database
// restored; it is zero for databases opened without a WAL.
func (d *DB) Recovery() RecoveryInfo { return d.recovery }

// Snapshot writes a checkpoint of the current committed state and
// truncates the log segments it makes obsolete, bounding both log size
// and recovery time. Commits proceed concurrently: the snapshot is cut
// at a segment rotation, and records committed during the scan land in
// segments the snapshot does not cover, so replay (last-wins) converges
// to the same state. It is a no-op on a database opened without a WAL.
func (d *DB) Snapshot() error {
	if d.wal == nil {
		return nil
	}
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	return d.snapshotLocked()
}

// snapshotLocked is Snapshot with snapMu held: the one place the log
// is cut for a state image.
func (d *DB) snapshotLocked() error {
	// Cut point: rotate so every record up to now is in a sealed
	// segment, note the counter, and take a door ticket — all under
	// commitMu so no commit can mint between the rotation and the
	// ticket.
	d.commitMu.Lock()
	cut, err := d.wal.Rotate()
	if err != nil {
		d.commitMu.Unlock()
		d.metrics.SnapshotFailures.Add(1)
		return fmt.Errorf("db: snapshot: %w", err)
	}
	d.walSeq.Store(cut)
	counter := d.versionC.Load()
	ticket := d.door.enter()
	d.commitMu.Unlock()

	// Wait the ticket through: every commit minted before the cut has
	// fully applied to the store, so the scan below observes all
	// of them. Commits minted after the ticket may also be observed —
	// harmless, because their records live in segments >= cut and
	// replay is last-wins (the log never deletes keys).
	d.door.wait(ticket)
	d.door.exit()

	sw, err := d.wal.BeginSnapshot(cut, counter)
	if err != nil {
		d.metrics.SnapshotFailures.Add(1)
		return fmt.Errorf("db: snapshot: %w", err)
	}
	var addErr error
	d.store.Range(func(key kv.Key, item kv.Item) bool {
		addErr = sw.Add(wal.SnapshotEntry{
			Key:     key,
			Value:   item.Value,
			Version: item.Version,
			Deps:    item.Deps,
		})
		return addErr == nil
	})
	if addErr != nil {
		sw.Abort()
		d.metrics.SnapshotFailures.Add(1)
		return fmt.Errorf("db: snapshot: %w", addErr)
	}
	if err := sw.Commit(); err != nil {
		d.metrics.SnapshotFailures.Add(1)
		return fmt.Errorf("db: snapshot: %w", err)
	}
	d.metrics.Snapshots.Add(1)
	return nil
}

// noteSegment hands the snapshot worker a decision when a record lands
// in a newer log segment than any seen before, that is, after a segment
// sealed by size (a snapshot marks the segment of its own cut as seen).
// The hand-off waits out a snapshot still being taken: a writer that
// fills segments faster than snapshots cut them waits for one, so the
// log stays bounded. Callers hold no lock a snapshot takes.
func (d *DB) noteSegment(pos wal.Pos) {
	seen := d.walSeq.Load()
	if pos.Seq <= seen || !d.walSeq.CompareAndSwap(seen, pos.Seq) {
		return
	}
	select {
	case d.snapKick <- struct{}{}:
	case <-d.snapQuit:
	}
}

// snapshotWorker takes a snapshot off the commit path when the log has
// outgrown its newest image. It decides under snapMu, so a join's or an
// explicit snapshot that landed since the hand-off counts. Failures are
// counted, not fatal: the log keeps growing but stays correct, and the
// next sealed segment retries.
func (d *DB) snapshotWorker() {
	defer close(d.snapDone)
	for {
		select {
		case <-d.snapQuit:
			return
		case <-d.snapKick:
			d.snapMu.Lock()
			if d.wal.SnapshotDue() {
				_ = d.snapshotLocked()
			}
			d.snapMu.Unlock()
		}
	}
}

// logCommit appends the transaction to the WAL (write-ahead: called
// between minting and apply, outside commitMu so concurrent committers
// coalesce into group-commit batches). items[i] is what writes[i]
// stores; the record lists the writes in request order. A nil wal is a
// no-op. The returned position is the end of the record's frame — what
// a replica must acknowledge before a synchronous commit returns.
func (d *DB) logCommit(version kv.Version, writes []writeAccess, items []kv.Item) (wal.Pos, error) {
	if d.wal == nil {
		return wal.Pos{}, nil
	}
	rec := wal.Record{Version: version, Writes: make([]wal.Entry, len(writes))}
	for i, w := range writes {
		rec.Writes[i] = wal.Entry{Key: w.key, Value: items[i].Value, Deps: items[i].Deps}
	}
	pos, err := d.wal.Append(rec)
	if err != nil {
		return wal.Pos{}, fmt.Errorf("db: wal append: %w", err)
	}
	return pos, nil
}
