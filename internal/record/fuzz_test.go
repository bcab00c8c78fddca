package record

import (
	"bytes"
	"testing"

	"github.com/pmemgo/xfdetector/internal/pmem"
)

// FuzzRead feeds arbitrary bytes to the artifact decoder. It must never
// panic, and every artifact it accepts must keep its delta pages inside
// its pool — the invariant the replay's unchecked pool writes rely on.
// The committed corpus (testdata/fuzz/FuzzRead) holds a recording of a
// tiny two-failure-point target next to the synthetic artifact below.
//
//	go test ./internal/record -fuzz=FuzzRead -fuzztime=20s
func FuzzRead(f *testing.F) {
	f.Add(buildArtifact(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, fp := range a.FPs {
			for _, d := range fp.Delta {
				if len(d.Data) > pmem.PageSize || uint64(d.Index)*pmem.PageSize+uint64(len(d.Data)) > a.PoolSize {
					t.Fatalf("accepted failure point %d's delta page %d (%d bytes) outside the %d-byte pool",
						i, d.Index, len(d.Data), a.PoolSize)
				}
			}
		}
	})
}
