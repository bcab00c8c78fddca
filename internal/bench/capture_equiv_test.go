package bench

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/pmemgo/xfdetector/internal/core"
)

// TestIPCaptureEquivalenceAcrossTable4 pins the narrowed source-location
// capture on every evaluated program of the paper's Table 4. With
// KeepTrace the pre-failure pool captures every entry's IP; without it,
// only the kinds the shadow stores, and post-failure reader IPs are pulled
// on demand for reads with findings — sequentially, on parallel workers
// and on timed post-run goroutines. Every configuration must produce the
// same report-key set, the same crash-state fingerprint per completed
// failure point and the same bucket accounting.
func TestIPCaptureEquivalenceAcrossTable4(t *testing.T) {
	type outcome struct {
		keys    []string
		fps     map[int]uint64
		buckets string
	}
	run := func(t *testing.T, cfg core.Config, target core.Target) outcome {
		var mu sync.Mutex
		out := outcome{fps: map[int]uint64{}}
		cfg.PoolSize = DefaultPoolSize
		cfg.OnPostRunComplete = func(fp int, fpr uint64, _ []core.Report) {
			mu.Lock()
			out.fps[fp] = fpr
			mu.Unlock()
		}
		res, err := core.Run(cfg, target)
		if err != nil {
			t.Fatal(err)
		}
		out.keys = dedupKeys(res)
		out.buckets = fmt.Sprintf("fps=%d posts=%d pruned=%d classes=%d pre=%d post=%d benign=%d",
			res.FailurePoints, res.PostRuns, res.PrunedFailurePoints, res.CrashStateClasses,
			res.PreEntries, res.PostEntries, res.BenignReads)
		return out
	}
	for _, tt := range table4Cases(t) {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			want := run(t, core.Config{KeepTrace: true}, tt.target())
			if tt.wantBug && len(want.keys) == 0 {
				t.Fatalf("seeded fault %q not detected", tt.fault)
			}
			if len(want.fps) == 0 {
				t.Fatal("no post-run completed; the fingerprint comparison would be vacuous")
			}
			for name, cfg := range map[string]core.Config{
				"narrowed":           {},
				"narrowed/workers=2": {Workers: 2},
				"narrowed/timed":     {PostRunTimeout: time.Minute},
			} {
				got := run(t, cfg, tt.target())
				if !stringSlicesEqual(got.keys, want.keys) {
					t.Errorf("%s: report keys diverge\nkept: %v\ngot:  %v", name, want.keys, got.keys)
				}
				if fmt.Sprint(got.fps) != fmt.Sprint(want.fps) {
					t.Errorf("%s: per-failure-point fingerprints diverge\nkept: %v\ngot:  %v", name, want.fps, got.fps)
				}
				if got.buckets != want.buckets {
					t.Errorf("%s: accounting diverges\nkept: %s\ngot:  %s", name, want.buckets, got.buckets)
				}
			}
		})
	}
}
