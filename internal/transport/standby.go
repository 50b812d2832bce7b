package transport

// The standby loop: connect to the primary, negotiate the replication
// stream, and feed every received frame through db.ApplyReplicated so
// this node's durable state, version counter, and invalidation stream
// stay an exact committed prefix of the primary's. The resume cursor is
// the end of the last applied record frame, in primary-log coordinates;
// a broken stream or a lost frame reconnects from it. It is kept in
// memory only — a restarted standby re-joins with a full state
// transfer, which the idempotent apply path (last-wins puts, max-raise
// counter) makes safe on top of whatever its own log recovered.
//
// On primary loss the loop reconnects with jittered backoff forever,
// unless AutoPromote is set: once the primary has been unreachable for
// PromoteAfter, the standby promotes itself and starts minting versions
// strictly above everything it replicated.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
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
	// AutoPromote promotes this node once the primary has been
	// unreachable for PromoteAfter.
	AutoPromote  bool
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
		// response must not wedge the loop — time out, back off, redial.
		// The primary answers before it streams anything, so the bound is
		// a dial plus one round trip, and a lossy link pays it per loss.
		octx, ocancel := context.WithTimeout(ctx, 2*time.Second)
		st, err := OpenReplication(octx, cfg.Primary, cfg.Name, cursor)
		ocancel()
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			if cfg.AutoPromote && time.Since(lastContact) > cfg.PromoteAfter {
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
			sleep := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
			select {
			case <-ctx.Done():
				return
			case <-time.After(sleep):
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			continue
		}
		backoff = 50 * time.Millisecond
		lastContact = time.Now()
		err = followStream(ctx, d, st, &cursor, &lastContact, logf)
		st.Close()
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

// followStream consumes one negotiated stream: the full state image, if
// the primary sent one, then contiguous record frames, acknowledging
// each batch once it is durably applied. It updates the resume cursor
// and last-contact time as frames arrive and returns when the stream
// breaks or the apply path refuses (promotion).
func followStream(ctx context.Context, d *db.DB, st *ReplStream, cursor *wal.Pos, lastContact *time.Time, logf func(string, ...any)) error {
	stop := context.AfterFunc(ctx, st.Close) // unblock synchronous reads on shutdown
	defer stop()

	if st.SnapshotMode() {
		// The primary no longer holds our cursor (or we never had one):
		// everything streams again. Idempotent apply makes the overlap
		// with already-held state harmless.
		logf("tdbd: full state transfer from primary (cursor %s not resumable)", *cursor)
		applied := uint64(0)
		for {
			batch, _, total, done, err := st.NextSnapshot()
			if err != nil {
				return err
			}
			*lastContact = time.Now()
			if done {
				// Snapshot frames have no positional contiguity, so a lost
				// or reordered entry frame is only visible here: the
				// terminator declares how many entries the image holds.
				// Refuse a short transfer — the cursor is unchanged (zero,
				// or one the primary no longer holds), so the reconnect
				// streams a fresh image.
				if applied != total {
					return fmt.Errorf("tdbd: snapshot image incomplete: applied %d of %d entries", applied, total)
				}
				break
			}
			recs := make([]wal.Record, len(batch))
			for i, e := range batch {
				recs[i] = wal.Record{
					Version: e.Version,
					Writes:  []wal.Entry{{Key: e.Key, Value: e.Value, Deps: e.Deps}},
				}
			}
			if _, err := d.ApplyReplicated(recs); err != nil {
				return err
			}
			applied += uint64(len(batch))
		}
		// The terminator fixed the log cut the records continue from;
		// acknowledging it tells the primary we hold everything before it.
		*cursor = st.Start()
		logf("tdbd: state transfer complete: %d entries, resuming at %s (counter=%d)",
			applied, *cursor, d.VersionCounter())
	}
	if err := st.Ack(*cursor, d.VersionCounter()); err != nil {
		return err
	}

	for {
		start, end, recs, err := st.NextRecords()
		if err != nil {
			return err
		}
		*lastContact = time.Now()
		if start != *cursor {
			// A frame was lost or reordered. Everything before the cursor
			// was applied contiguously and acknowledged, so the reconnect
			// resumes there: the primary re-streams the missing run if its
			// log still holds it and sends a fresh image only if not.
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
