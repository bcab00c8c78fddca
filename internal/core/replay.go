package core

// Recorded-campaign support: the recording hook that captures one
// pre-failure pass into a record.Writer, and the replay path that runs the
// frontend from a record.Artifact instead of executing the target's
// pre-failure stage (Config.Record / Config.Replay).
//
// Replay preserves live semantics exactly: every trace entry feeds the same
// recordLocked path the tracing sink uses, recorded failure-point markers
// run the same dispatchFP body live injection runs (sharding, resume,
// pruning, verdict sharing), and cancellation behaves like a live run's —
// remaining markers are skipped and counted, the rest of the trace still
// applies. What replay drops is the target code, source-location capture
// and pool instrumentation.

import (
	"context"
	"fmt"

	"github.com/pmemgo/xfdetector/internal/pmem"
	"github.com/pmemgo/xfdetector/internal/record"
	"github.com/pmemgo/xfdetector/internal/trace"
)

// recordFailurePoint hands one injected failure point to the artifact
// writer: the crash-state fingerprint and the pool pages dirtied since the
// previous point. Callers hold sinkMu; the recording pass is sequential
// (Post is nil), so the pool delta and the shadow state are exactly the
// failure point's.
func (r *runner) recordFailurePoint(fpID int) {
	if r.recordErr != nil {
		return
	}
	delta := r.pool.TakeDelta()
	if err := r.cfg.Record.OnFailurePoint(fpID, r.sh.CrashFingerprint(), delta); err != nil {
		r.recordErr = err
	}
}

// finishRecording finalizes the artifact after a clean recording pass. A
// degraded pass (cancellation, harness faults) fails instead: a short
// artifact would silently shrink every future campaign.
func (r *runner) finishRecording() error {
	if r.recordErr != nil {
		return fmt.Errorf("core: recording: %w", r.recordErr)
	}
	r.degradeMu.Lock()
	incomplete, why := r.incomplete, r.incompleteWhy
	r.degradeMu.Unlock()
	if incomplete {
		return fmt.Errorf("core: recording degraded (%s); refusing to finalize a partial artifact", why)
	}
	if err := r.cfg.Record.Finish(r.target.Name, r.keptTrace); err != nil {
		return fmt.Errorf("core: recording: %w", err)
	}
	return nil
}

// ownsFP reports whether this shard dispatches failure point fp.
func (r *runner) ownsFP(fp int) bool {
	return r.cfg.ShardCount <= 1 || fp%r.cfg.ShardCount == r.cfg.ShardIndex
}

// replayRecorded drives the whole frontend from the recorded artifact.
func (r *runner) replayRecorded() error {
	a := r.cfg.Replay
	nextFP := 0
	for i := 0; i < a.Trace.Len(); i++ {
		e := a.Trace.At(i)
		r.sinkMu.Lock()
		var err error
		if e.Kind == trace.FailurePoint && e.Stage == trace.PreFailure {
			err = r.replayFailurePoint(a, nextFP)
			nextFP++
		} else {
			r.recordLocked(e)
		}
		r.sinkMu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// replayFailurePoint handles one recorded failure-point marker: it brings
// the pool image up to the failure point with the recorded page delta,
// then mirrors live injection — the cancellation boundary, the counting,
// the marker, and dispatchFP — with one addition: before dispatching a
// point this campaign owns, the replayed shadow's crash-state fingerprint
// must match the recorded one. Callers hold sinkMu.
func (r *runner) replayFailurePoint(a *record.Artifact, fpIdx int) error {
	if fpIdx >= len(a.FPs) {
		return fmt.Errorf("core: recorded trace has more failure-point markers than the artifact's %d records", len(a.FPs))
	}
	if r.ctx.Err() != nil {
		r.opsSinceFP = 0
		r.noteSkipped(fmt.Sprintf("run cancelled: %v", context.Cause(r.ctx)))
		return nil
	}
	fp := a.FPs[fpIdx]
	for _, d := range fp.Delta {
		r.pool.Poke(uint64(d.Index)*pmem.PageSize, d.Data)
	}
	fpID := r.failurePoints
	if fpID != fpIdx {
		return fmt.Errorf("core: replay desynchronized: marker %d arrived at failure point %d", fpIdx, fpID)
	}
	r.failurePoints++
	r.opsSinceFP = 0
	r.recordLocked(trace.Entry{Kind: trace.FailurePoint, Stage: trace.PreFailure})
	if err := r.verifyReplayFingerprint(fpID, fp.Fingerprint); err != nil {
		return err
	}
	r.dispatchFP(fpID)
	return nil
}

// verifyReplayFingerprint is the replay integrity tripwire: at every
// failure point this campaign is about to dispatch under pruning, the
// fingerprint the replayed shadow produces must equal the one the
// recording pass produced. A tampered, truncated or mismatched artifact
// cannot reproduce the recorded fingerprints, so it fails the run here
// instead of silently mis-classifying crash states.
func (r *runner) verifyReplayFingerprint(fpID int, want uint64) error {
	if !r.pruning() || r.target.Post == nil {
		return nil
	}
	if !r.ownsFP(fpID) || r.cfg.CompletedFailurePoints[fpID] {
		return nil
	}
	if got := r.sh.CrashFingerprint(); got != want {
		return fmt.Errorf("core: crash-state fingerprint mismatch at failure point %d (recorded %016x, replayed %016x): corrupt artifact", fpID, want, got)
	}
	return nil
}
