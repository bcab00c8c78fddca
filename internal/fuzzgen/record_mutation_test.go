package fuzzgen

import (
	"strings"
	"testing"

	"github.com/pmemgo/xfdetector/internal/core"
)

// Seeded mutant for the recorded-campaign artifact. A replay trusts that
// each per-failure-point record describes the state its trace prefix
// reaches; an artifact whose records are stale (here: every record
// carries failure point 0's fingerprint) breaks exactly that trust, and
// the replay's fingerprint tripwire exists to refuse it. The battery
// proves a deep resume over stale records fails at the tripwire whenever
// the stale fingerprint differs from the real one — never a silent wrong
// classification.

// recordMutationSeeds is the battery's per-knob seed count.
const recordMutationSeeds = 40

// TestStaleCheckpointMutationCaught: generated programs are recorded and
// deep-resumed (every failure point but the last completed) from the
// artifact. Genuine records must replay cleanly; stale records must fail
// the resume at the tripwire on every pair where the last point's real
// fingerprint differs from failure point 0's.
func TestStaleCheckpointMutationCaught(t *testing.T) {
	knobs := []Knob{KnobDroppedFlush, KnobMixed}
	// scenario records p and deep-resumes it from the artifact, with the
	// records made stale when stale is set. eligible reports whether the
	// stale fingerprint differs from the one the resumed point really has.
	scenario := func(seed int64, knob Knob, stale bool) (eligible bool, err error) {
		p := Generate(seed, knob)
		a, err := recordProgram(p)
		if err != nil {
			return false, err
		}
		total := len(a.FPs)
		if total < 2 {
			return false, nil
		}
		eligible = a.FPs[total-1].Fingerprint != a.FPs[0].Fingerprint
		if stale {
			for i := range a.FPs {
				a.FPs[i].Fingerprint = a.FPs[0].Fingerprint
			}
		}
		completed := make(map[int]bool, total-1)
		for fp := 0; fp < total-1; fp++ {
			completed[fp] = true
		}
		_, err = core.Run(core.Config{
			PoolSize:               p.PoolSize,
			Replay:                 a,
			CompletedFailurePoints: completed,
		}, BuildTarget(p))
		return eligible, err
	}

	for seed := int64(0); seed < recordMutationSeeds; seed++ {
		for _, k := range knobs {
			if _, err := scenario(seed, k, false); err != nil {
				t.Fatalf("pre-mutation sanity failed (seed %d, knob %s): %v", seed, k, err)
			}
		}
	}

	caught, eligiblePairs := 0, 0
	for seed := int64(0); seed < recordMutationSeeds; seed++ {
		for _, k := range knobs {
			eligible, err := scenario(seed, k, true)
			if !eligible {
				if err != nil {
					t.Fatalf("seed %d knob %s: stale records equal to the real ones errored: %v", seed, k, err)
				}
				continue
			}
			eligiblePairs++
			switch {
			case isTripwire(err):
				caught++
			case err != nil:
				t.Fatalf("seed %d knob %s: non-tripwire error under mutation: %v", seed, k, err)
			default:
				t.Errorf("seed %d knob %s: resumed replay over stale records completed", seed, k)
			}
		}
	}
	if eligiblePairs == 0 {
		t.Fatalf("no seed produced a resumed point whose fingerprint differs from failure point 0's; the battery proved nothing")
	}
	t.Logf("stale records caught on %d/%d eligible seed-knob pairs", caught, eligiblePairs)
}

// isTripwire reports whether err is the replay's fingerprint tripwire
// refusing a corrupt artifact.
func isTripwire(err error) bool {
	return err != nil && strings.Contains(err.Error(), "fingerprint mismatch")
}
