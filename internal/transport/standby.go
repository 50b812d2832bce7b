package transport

// The standby loop: connect to the primary, negotiate the replication
// stream, and feed every received frame through db.ApplyReplicated so
// this node's durable state, version counter, and invalidation stream
// stay an exact committed prefix of the primary's. The resume cursor is
// the end of the last applied record frame, in primary-log coordinates;
// a broken stream or a lost frame reconnects from it. It is kept in
// memory only — a restarted standby re-joins with a full state
// transfer on top of what its own log recovered: the primary's newest
// snapshot file, never older than the standby's version counter,
// checked by the parser recovery uses (wal.ReadSnapshot); the records
// continue from its cut.
//
// On primary loss the loop reconnects with jittered backoff forever,
// unless PromoteAfter is set: once the primary has been unreachable for
// that long, the standby promotes itself and starts minting versions
// strictly above everything it replicated.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"tcache/internal/db"
	"tcache/internal/wal"
)

// StandbyConfig configures RunStandby.
type StandbyConfig struct {
	// Primary is the address replicated from.
	Primary string
	// Name is the replica identity registered with the primary (its ack
	// and lag accounting key).
	Name string
	// PromoteAfter, when > 0, promotes this node once the primary has
	// been unreachable that long; 0 never promotes on its own.
	PromoteAfter time.Duration
	// Logf, if set, receives stream life-cycle messages.
	Logf func(format string, args ...any)
}

// RunStandby replicates from the primary until ctx is cancelled or the
// node is promoted (by an admin's OpPromote, or automatically). It is
// the body of tdbd's -replica-of mode.
func RunStandby(ctx context.Context, d *db.DB, cfg StandbyConfig) {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var cursor wal.Pos // primary-log coordinates; zero asks for a full image
	lastContact := time.Now()
	backoff := 50 * time.Millisecond
	for ctx.Err() == nil {
		if d.Role() != db.RoleStandby {
			logf("tdbd: promoted (counter=%d); leaving the standby loop", d.VersionCounter())
			return
		}
		// Bound the negotiation: a peer (or network) that swallows the mode
		// response must not wedge the loop — time out, back off, redial. It
		// covers a dial, one round trip and any snapshot the primary takes
		// for this join (one that outlasts it serves the redial); a lossy
		// link pays it per loss.
		octx, ocancel := context.WithTimeout(ctx, 2*time.Second)
		st, err := OpenReplication(octx, cfg.Primary, cfg.Name, cursor, d.VersionCounter())
		ocancel()
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			if cfg.PromoteAfter > 0 && time.Since(lastContact) > cfg.PromoteAfter {
				counter, perr := d.Promote()
				if perr != nil {
					logf("tdbd: auto-promote failed: %v", perr)
					return
				}
				logf("tdbd: primary %s unreachable for %s; auto-promoted at counter=%d",
					cfg.Primary, cfg.PromoteAfter, counter)
				return
			}
			// Jittered: standbys of a bouncing primary spread their redials.
			if SleepJittered(ctx, backoff) != nil {
				return
			}
			backoff = min(2*backoff, time.Second)
			continue
		}
		backoff = 50 * time.Millisecond
		err = followStream(ctx, d, st, &cursor, logf)
		st.Close()
		lastContact = time.Now() // the primary was reachable until the stream broke
		switch {
		case ctx.Err() != nil:
			return
		case errors.Is(err, db.ErrNotStandby):
			logf("tdbd: promoted (counter=%d); leaving the standby loop", d.VersionCounter())
			return
		case err != nil:
			logf("tdbd: replication stream from %s broke: %v", cfg.Primary, err)
		}
	}
}

// followStream consumes one negotiated stream: the state image, if the
// primary sent one, then contiguous record frames, acknowledging each
// batch once it is durably applied. It updates the resume cursor as
// frames arrive and returns when the stream breaks or the apply path
// refuses (promotion).
func followStream(ctx context.Context, d *db.DB, st *ReplStream, cursor *wal.Pos, logf func(string, ...any)) error {
	stop := context.AfterFunc(ctx, st.Close) // unblock synchronous reads on shutdown
	defer stop()

	img, err := st.Image()
	if err != nil {
		// Part of the image was lost. The cursor is unchanged (zero, or
		// one the primary no longer holds), so the reconnect gets the
		// image again.
		return err
	}
	if img != nil {
		// The primary no longer holds our cursor (or we never had one):
		// everything streams again. Idempotent apply makes the overlap
		// with already-held state harmless.
		logf("tdbd: full state transfer from primary: %d-byte image (cursor %s not resumable)", len(img), *cursor)
		n, err := applyImage(d, img, st.start)
		if err != nil {
			return err
		}
		// The image covers the log below its cut; acknowledging the cut
		// tells the primary we hold everything before it.
		*cursor = st.start
		logf("tdbd: state transfer complete: %d entries, resuming at %s (counter=%d)",
			n, *cursor, d.VersionCounter())
	}
	if err := st.Ack(*cursor, d.VersionCounter()); err != nil {
		return err
	}

	for {
		start, end, recs, err := st.NextRecords()
		if err != nil {
			return err
		}
		if start != *cursor {
			// A frame was lost or reordered. Everything before the cursor
			// was applied contiguously and acknowledged, so the reconnect
			// resumes there: the primary re-streams the missing run if its
			// log still holds it and sends the image only if not.
			// Zeroing the cursor would turn every lost frame into a full
			// state transfer — itself lossy — which livelocks a lossy link.
			return fmt.Errorf("tdbd: replication gap: frame starts at %s, cursor at %s", start, *cursor)
		}
		if _, err := d.ApplyReplicated(recs); err != nil {
			return err
		}
		*cursor = end
		if err := st.Ack(end, d.VersionCounter()); err != nil {
			return err
		}
	}
}

// applyImage checks the snapshot image img with wal.ReadSnapshot against
// the negotiated cut and applies its entries through ApplyReplicated in
// batches of maxReplBatchRecords as they are parsed, so the standby's own
// log and ack rule are those of the record stream. It returns the
// image's entry count.
func applyImage(d *db.DB, img []byte, cut wal.Pos) (int, error) {
	recs := make([]wal.Record, 0, maxReplBatchRecords)
	_, n, err := wal.ReadSnapshot(img, cut.Seq, wal.ReplayHandler{Snapshot: func(e wal.SnapshotEntry) error {
		recs = append(recs, wal.Record{Version: e.Version, Writes: []wal.Entry{{Key: e.Key, Value: e.Value, Deps: e.Deps}}})
		if len(recs) < maxReplBatchRecords {
			return nil
		}
		_, err := d.ApplyReplicated(recs)
		recs = recs[:0]
		return err
	}})
	if err == nil {
		_, err = d.ApplyReplicated(recs)
	}
	return n, err
}
