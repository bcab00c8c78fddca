package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/pmemgo/xfdetector/internal/record"
	"github.com/pmemgo/xfdetector/internal/trace"
)

// Recorded-campaign equivalence: a replay from the XFDR artifact must be
// report-for-report identical to executing the target live — sequentially,
// across shards, and resumed — and the fingerprint tripwire must catch a
// tampered artifact instead of silently mis-classifying crash states.

const replayTestPool = 1 << 20

// recordArtifact runs one recording pass of mk's target and decodes the
// resulting artifact.
func recordArtifact(t *testing.T, mk func(string) Target, name string) *record.Artifact {
	t.Helper()
	var buf bytes.Buffer
	cfg := Config{PoolSize: replayTestPool}
	cfg.Record = record.NewWriter(&buf, 42, replayTestPool, 0)
	res, err := Run(cfg, mk(name))
	if err != nil {
		t.Fatalf("recording %s: %v", name, err)
	}
	if res.PostRuns != 0 {
		t.Fatalf("recording %s ran %d post-failure executions; the record pass is pre-failure only", name, res.PostRuns)
	}
	a, err := record.Read(&buf)
	if err != nil {
		t.Fatalf("decoding artifact for %s: %v", name, err)
	}
	if a.PoolSize != replayTestPool || a.Identity != 42 {
		t.Fatalf("artifact header = identity %d pool %d", a.Identity, a.PoolSize)
	}
	if res.FailurePoints != len(a.FPs) {
		t.Fatalf("recorded %d failure points, artifact has %d records", res.FailurePoints, len(a.FPs))
	}
	return a
}

// TestRecordedReplayMatchesLive: replaying the artifact — sequentially and
// sharded, with and without parallel post-run workers — produces exactly
// the live key set with exact failure-point accounting.
func TestRecordedReplayMatchesLive(t *testing.T) {
	targets := map[string]func(string) Target{
		"fig11":  figure11Target,
		"manyFP": manyFPTarget,
	}
	for tname, mk := range targets {
		live, err := Run(Config{PoolSize: replayTestPool}, mk(tname+"-live"))
		if err != nil {
			t.Fatal(err)
		}
		liveKeys := sortedKeys(live)
		a := recordArtifact(t, mk, tname+"-rec")
		for _, workers := range []int{1, 4} {
			for _, shards := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/workers=%d/shards=%d", tname, workers, shards), func(t *testing.T) {
					union := newReportSet()
					for idx := 0; idx < shards; idx++ {
						cfg := Config{
							PoolSize:   replayTestPool,
							Workers:    workers,
							ShardCount: shards,
							ShardIndex: idx,
							Replay:     a,
						}
						if shards == 1 {
							cfg.ShardCount, cfg.ShardIndex = 0, 0
						}
						res, err := Run(cfg, mk(tname+"-replay"))
						if err != nil {
							t.Fatalf("shard %d: %v", idx, err)
						}
						if res.Incomplete {
							t.Fatalf("shard %d incomplete: %s", idx, res.IncompleteReason)
						}
						if res.FailurePoints != live.FailurePoints {
							t.Errorf("shard %d: %d failure points, live run had %d", idx, res.FailurePoints, live.FailurePoints)
						}
						if got := res.BucketedFailurePoints(); got != res.FailurePoints {
							t.Errorf("shard %d: buckets account for %d of %d failure points", idx, got, res.FailurePoints)
						}
						if !subsetOf(sortedKeys(res), liveKeys) {
							t.Errorf("shard %d reports keys outside the live set:\nshard: %v\nlive:  %v",
								idx, sortedKeys(res), liveKeys)
						}
						for _, rep := range res.Reports {
							union.add(rep)
						}
					}
					if got := sortedKeySet(union); !equalKeys(got, liveKeys) {
						t.Errorf("replayed union differs from live run:\nreplay: %v\nlive:   %v", got, liveKeys)
					}
				})
			}
		}
	}
}

// TestRecordedResumeMatchesLive: a resumed replay (every failure point
// but the last completed) reports exactly what a live run of the same
// resume reports, with the completed prefix bucketed as resumed.
func TestRecordedResumeMatchesLive(t *testing.T) {
	a := recordArtifact(t, manyFPTarget, "resume-rec")
	total := len(a.FPs)
	completed := map[int]bool{}
	for fp := 0; fp < total-1; fp++ {
		completed[fp] = true
	}
	run := func(replay *record.Artifact) *Result {
		t.Helper()
		res, err := Run(Config{
			PoolSize:               replayTestPool,
			Replay:                 replay,
			CompletedFailurePoints: completed,
		}, manyFPTarget("resume-run"))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	replayed, live := run(a), run(nil)
	for _, res := range []*Result{replayed, live} {
		if res.ResumedFailurePoints != total-1 {
			t.Errorf("resumed = %d, want %d", res.ResumedFailurePoints, total-1)
		}
		if got := res.BucketedFailurePoints(); got != res.FailurePoints {
			t.Errorf("buckets account for %d of %d failure points", got, res.FailurePoints)
		}
	}
	if replayed.PostRuns != live.PostRuns {
		t.Errorf("post runs: replayed %d, live %d", replayed.PostRuns, live.PostRuns)
	}
	if !equalKeys(sortedKeys(replayed), sortedKeys(live)) {
		t.Errorf("resumed replay keys differ from the resumed live run:\nreplay: %v\nlive:   %v",
			sortedKeys(replayed), sortedKeys(live))
	}
}

// TestReplayTripwireCatchesTamperedArtifact: an artifact whose recorded
// fingerprints no longer describe its trace — one flipped fingerprint, or
// one Write dropped before a later failure-point marker — must fail the
// replay at the fingerprint tripwire, never complete with wrong
// classifications.
func TestReplayTripwireCatchesTamperedArtifact(t *testing.T) {
	const marker = 3 // the failure point whose state the tampering skews
	tamper := map[string]func(a *record.Artifact){
		"flipped-fingerprint": func(a *record.Artifact) {
			a.FPs[marker].Fingerprint ^= 1
		},
		"dropped-write": func(a *record.Artifact) {
			entries := a.Trace.Entries()
			drop, seen := -1, 0
			for i, e := range entries {
				if e.Kind == trace.Write {
					drop = i
				}
				if e.Kind == trace.FailurePoint && e.Stage == trace.PreFailure {
					if seen == marker {
						break
					}
					seen++
				}
			}
			if drop < 0 {
				t.Fatalf("no Write before failure point %d", marker)
			}
			kept := trace.New()
			for i, e := range entries {
				if i != drop {
					kept.Append(e)
				}
			}
			a.Trace = kept
		},
	}
	for name, mutate := range tamper {
		t.Run(name, func(t *testing.T) {
			a := recordArtifact(t, manyFPTarget, name+"-rec")
			if len(a.FPs) <= marker {
				t.Fatalf("target too small: %d failure points", len(a.FPs))
			}
			mutate(a)
			_, err := Run(Config{PoolSize: replayTestPool, Replay: a}, manyFPTarget(name+"-replay"))
			if err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
				t.Fatalf("replay of a tampered artifact: err = %v, want the fingerprint mismatch", err)
			}
		})
	}
}

// TestStaleCheckpointTripwire: an artifact whose per-failure-point records
// are stale — every record carries failure point 0's fingerprint — must
// fail a resumed replay (every point but the last completed) at the
// fingerprint tripwire of the one point it still dispatches, never
// complete with wrong classifications.
func TestStaleCheckpointTripwire(t *testing.T) {
	a := recordArtifact(t, manyFPTarget, "stale-rec")
	total := len(a.FPs)
	if total < 4 {
		t.Fatalf("target too small to reach a stale record: %d failure points", total)
	}
	if a.FPs[total-1].Fingerprint == a.FPs[0].Fingerprint {
		t.Fatalf("failure points 0 and %d share a fingerprint; a stale record proves nothing", total-1)
	}
	for i := range a.FPs {
		a.FPs[i].Fingerprint = a.FPs[0].Fingerprint
	}
	completed := map[int]bool{}
	for fp := 0; fp < total-1; fp++ {
		completed[fp] = true
	}
	_, err := Run(Config{
		PoolSize:               replayTestPool,
		Replay:                 a,
		CompletedFailurePoints: completed,
	}, manyFPTarget("stale-replay"))
	if err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("resumed replay of stale records: err = %v, want the fingerprint mismatch", err)
	}
}

// sortedKeySet returns a reportSet's dedup keys in sorted order.
func sortedKeySet(s *reportSet) []string {
	res := &Result{Reports: s.snapshot()}
	return sortedKeys(res)
}
