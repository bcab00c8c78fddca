package core

import (
	"fmt"
	"sync"
	"testing"
)

// TestSnapshotWithConcurrentMutators pins the snapshot-vs-mutator aliasing
// contract: while the main pre-failure thread triggers failure points (and
// therefore incremental dirty-page snapshots of the root pool), sibling
// goroutines keep storing into disjoint PM regions. Every store path
// mutates the buffer, marks its dirty pages and captures its trace entry
// inside one pool-mutex critical section, and TakeSnapshot runs under the
// same mutex, so the run must be race-clean (this file is covered by the
// repo's `go test -race ./internal/core` verify) and the report set must be
// deterministic: the post-failure stage only reads a setup-seeded,
// never-persisted address, whose race report does not depend on how the
// mutator stores interleave with the snapshots.
func TestSnapshotWithConcurrentMutators(t *testing.T) {
	const (
		seedAddr   = 0       // written in Setup, never persisted, read by Post
		mainAddr   = 64      // the main thread's persisted counter
		mutRegion  = 1 << 13 // mutators write into disjoint 8 KiB regions
		mutators   = 4
		storesEach = 300
		fences     = 10
	)
	target := Target{
		Name: "snapshot-vs-mutators",
		Setup: func(c *Ctx) error {
			c.Pool().Store64(seedAddr, 0x5EED)
			return nil
		},
		Pre: func(c *Ctx) error {
			p := c.Pool()
			var wg sync.WaitGroup
			for g := 0; g < mutators; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					base := uint64((g + 1)) * mutRegion
					for i := 0; i < storesEach; i++ {
						p.Store8(base+uint64(i), byte(i))
					}
				}(g)
			}
			for i := uint64(0); i < fences; i++ {
				p.Store64(mainAddr, i)
				p.Persist(mainAddr, 8)
			}
			wg.Wait()
			return nil
		},
		Post: func(c *Ctx) error {
			c.Pool().Load64(seedAddr)
			return nil
		},
	}

	var wantKeys []string
	for _, workers := range []int{1, 2, 4} {
		// The ",ablate=false" suffix keeps the subtest names stable from
		// when a full-copy snapshot case ran alongside these.
		name := fmt.Sprintf("workers=%d,ablate=false", workers)
		t.Run(name, func(t *testing.T) {
			// Two runs per configuration: the report set must not depend on
			// how the mutator goroutines happened to interleave with the
			// failure-point snapshots.
			for run := 0; run < 2; run++ {
				res, err := Run(Config{Workers: workers, DisablePerfBugs: true}, target)
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				// fences ordering points plus the final quiescent-state
				// injection, never elided: the main thread stores before
				// every fence.
				if res.FailurePoints != fences+1 {
					t.Fatalf("run %d: FailurePoints = %d, want %d", run, res.FailurePoints, fences+1)
				}
				keys := sortedKeys(res)
				if len(keys) != 1 || res.Count(CrossFailureRace) != 1 {
					t.Fatalf("run %d: want exactly the seeded race report, got %v", run, res.Reports)
				}
				if wantKeys == nil {
					wantKeys = keys
				} else if !equalKeys(keys, wantKeys) {
					t.Fatalf("run %d (%s): keys %v diverged from %v", run, name, keys, wantKeys)
				}
			}
		})
	}
}
