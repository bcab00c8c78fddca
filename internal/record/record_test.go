package record

import (
	"bytes"
	"encoding/binary"
	"strconv"
	"strings"
	"testing"

	"github.com/pmemgo/xfdetector/internal/pmem"
	"github.com/pmemgo/xfdetector/internal/trace"
)

const testPool = 1 << 16

// fillPage returns a delta page of n bytes, every byte set to fill.
func fillPage(idx, n int, fill byte) pmem.DeltaPage {
	return pmem.DeltaPage{Index: idx, Data: bytes.Repeat([]byte{fill}, n)}
}

// encode writes a synthetic artifact over a pool of poolSize bytes: one
// Write entry and one failure point per element of deltas.
func encode(tb testing.TB, poolSize uint64, deltas ...[]pmem.DeltaPage) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, 0xfeed, poolSize, 0)
	tr := trace.New()
	for fp, in := range deltas {
		tr.Append(trace.Entry{Kind: trace.Write, Addr: uint64(fp) * 64, Size: 8})
		if err := w.OnFailurePoint(fp, uint64(100+fp), in); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Finish("Synthetic", tr); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// buildArtifact is a small well-formed artifact: three failure points,
// page 0 dirtied twice.
func buildArtifact(tb testing.TB) []byte {
	return encode(tb, testPool,
		[]pmem.DeltaPage{fillPage(0, pmem.PageSize, 1)},
		[]pmem.DeltaPage{fillPage(0, pmem.PageSize, 2), fillPage(3, pmem.PageSize, 3)},
		nil)
}

func TestArtifactRoundTrip(t *testing.T) {
	a, err := Read(bytes.NewReader(buildArtifact(t)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Identity != 0xfeed || a.PoolSize != testPool || a.Target != "Synthetic" {
		t.Errorf("header = identity %x pool %d target %q", a.Identity, a.PoolSize, a.Target)
	}
	if a.Trace.Len() != 3 {
		t.Errorf("embedded trace has %d entries, want 3", a.Trace.Len())
	}
	if len(a.FPs) != 3 {
		t.Fatalf("artifact has %d failure points, want 3", len(a.FPs))
	}
	for i, fp := range a.FPs {
		if fp.Fingerprint != uint64(100+i) {
			t.Errorf("failure point %d fingerprint = %d, want %d", i, fp.Fingerprint, 100+i)
		}
	}
	if len(a.FPs[1].Delta) != 2 || a.FPs[1].Delta[1].Index != 3 || a.FPs[1].Delta[1].Data[0] != 3 {
		t.Errorf("failure point 1 delta = %d page(s)", len(a.FPs[1].Delta))
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("XFDT----not-an-artifact"))); err != ErrBadMagic {
		t.Errorf("Read on a non-artifact = %v, want ErrBadMagic", err)
	}
	// A truncated artifact must error, not return a partial decode.
	data := buildArtifact(t)
	if _, err := Read(bytes.NewReader(data[:len(data)-7])); err == nil {
		t.Error("Read accepted a truncated artifact")
	}
}

// TestReadRefusesOldVersion: a version 1 artifact (engine checkpoints and
// perf reports) is refused with a hint to re-record it.
func TestReadRefusesOldVersion(t *testing.T) {
	data := buildArtifact(t)
	binary.LittleEndian.PutUint32(data[4:], 1)
	if _, err := Read(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "re-record it") {
		t.Errorf("Read of a version 1 artifact: err = %v, want a re-record error", err)
	}
}

func TestOutOfOrderFailurePointRejected(t *testing.T) {
	w := NewWriter(&bytes.Buffer{}, 1, testPool, 0)
	if err := w.OnFailurePoint(1, 0, nil); err == nil {
		t.Error("out-of-order failure point accepted")
	}
}

// TestReadRejectsOutOfPoolDelta: a delta page reaching past the header's
// pool size is refused at decode time, naming the failure point and the
// page; a replay would otherwise panic poking it into the pool.
func TestReadRejectsOutOfPoolDelta(t *testing.T) {
	const tailPool = testPool + 100 // the last page is a 100-byte tail
	for _, tc := range []struct {
		name string
		pool uint64
		page pmem.DeltaPage
		ok   bool
	}{
		{"page-past-end", testPool, fillPage(testPool/pmem.PageSize, pmem.PageSize, 7), false},
		{"far-page", testPool, fillPage(1<<20, 1, 7), false},
		{"tail-overrun", tailPool, fillPage(testPool/pmem.PageSize, 101, 7), false},
		{"tail-exact", tailPool, fillPage(testPool/pmem.PageSize, 100, 7), true},
		{"last-full-page", testPool, fillPage(testPool/pmem.PageSize-1, pmem.PageSize, 7), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := encode(t, tc.pool, nil, []pmem.DeltaPage{tc.page})
			_, err := Read(bytes.NewReader(data))
			if tc.ok {
				if err != nil {
					t.Fatalf("in-pool delta page rejected: %v", err)
				}
				return
			}
			want := []string{"failure point 1", "delta page " + strconv.Itoa(tc.page.Index)}
			if err == nil || !strings.Contains(err.Error(), want[0]) || !strings.Contains(err.Error(), want[1]) {
				t.Fatalf("Read: err = %v, want an error naming %q and %q", err, want[0], want[1])
			}
		})
	}
}
