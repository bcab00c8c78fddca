// Package record implements recorded-campaign artifacts: one pre-failure
// pass serialized as the binary trace plus, per failure point, the
// crash-state fingerprint and the pool pages the execution dirtied, so a
// campaign can replay the pre-failure stage instead of re-executing the
// target (the frontend/backend split of §5.5).
//
// The container ("XFDR") holds, in order:
//
//   - a header with a version and the campaign's program-identity hash
//     (the vcache identity of the CLI flags that shape the execution), so
//     a stale artifact recorded for a different program is rejected before
//     it can skew detection;
//   - the complete pre-failure trace in the XFDT wire format
//     (internal/trace);
//   - one record per failure point: its crash-state fingerprint (the
//     pruning identity, doubling as a replay-integrity tripwire) and the
//     page-granular pool delta the execution dirtied since the previous
//     failure point (the pool's dirty bitmap) — consecutive deltas compose
//     into the pool image at any failure point over a zeroed pool.
package record

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/pmemgo/xfdetector/internal/pmem"
	"github.com/pmemgo/xfdetector/internal/trace"
)

const (
	// Magic is the artifact container magic ("XFDR"), distinguishing
	// recorded campaigns from bare XFDT traces.
	Magic = 0x52444658
	// version 1 artifacts also carried engine checkpoints and the
	// recording pass's perf reports; they are refused, not migrated.
	version = 2
)

// ErrBadMagic is returned when the stream is not an XFDR artifact.
var ErrBadMagic = errors.New("record: not a recorded-campaign artifact (bad magic)")

// FPRecord is the per-failure-point record.
type FPRecord struct {
	// Fingerprint is the crash-state fingerprint of the shadow at this
	// failure point (shadow.CrashFingerprint).
	Fingerprint uint64
	// Delta holds the pool pages dirtied since the previous failure point.
	Delta []pmem.DeltaPage
}

// Writer accumulates one recording pass and serializes the container to
// dst on Finish. Methods are called from the pre-failure thread only.
type Writer struct {
	dst      io.Writer
	identity uint64
	poolSize uint64
	fps      []FPRecord
}

// NewWriter returns a Writer that will serialize a campaign with the given
// program identity and pool size to dst. The last argument is ignored: it
// was the engine-checkpoint interval of version 1 artifacts, and stays in
// the signature for existing callers.
func NewWriter(dst io.Writer, identity, poolSize uint64, _ int) *Writer {
	return &Writer{dst: dst, identity: identity, poolSize: poolSize}
}

// OnFailurePoint records failure point fpID: its fingerprint and pool
// delta. Must be called once per failure point, in order.
func (w *Writer) OnFailurePoint(fpID int, fingerprint uint64, delta []pmem.DeltaPage) error {
	if fpID != len(w.fps) {
		return fmt.Errorf("record: failure point %d recorded out of order (have %d)", fpID, len(w.fps))
	}
	w.fps = append(w.fps, FPRecord{Fingerprint: fingerprint, Delta: delta})
	return nil
}

// Finish writes the complete container to the Writer's destination.
func (w *Writer) Finish(target string, tr *trace.Trace) error {
	bw := bufio.NewWriterSize(w.dst, 1<<16)
	var b [8]byte
	wu32 := func(v uint32) {
		binary.LittleEndian.PutUint32(b[:4], v)
		bw.Write(b[:4])
	}
	wu64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:8], v)
		bw.Write(b[:8])
	}

	// bufio.Writer latches its first error and reports it from Flush.
	wu32(Magic)
	wu32(version)
	wu64(w.identity)
	wu64(w.poolSize)
	wu32(uint32(len(target)))
	bw.WriteString(target)
	if _, err := tr.WriteTo(bw); err != nil {
		return fmt.Errorf("record: writing artifact: %w", err)
	}
	wu32(uint32(len(w.fps)))
	for _, fp := range w.fps {
		wu64(fp.Fingerprint)
		wu32(uint32(len(fp.Delta)))
		for _, d := range fp.Delta {
			wu32(uint32(d.Index))
			wu32(uint32(len(d.Data)))
			bw.Write(d.Data)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("record: writing artifact: %w", err)
	}
	return nil
}

// Artifact is a decoded recorded campaign.
type Artifact struct {
	Identity uint64
	PoolSize uint64
	Target   string
	Trace    *trace.Trace
	FPs      []FPRecord
}

// Load reads an artifact from a file.
func Load(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("record: %w", err)
	}
	defer f.Close()
	a, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("record: reading %s: %w", path, err)
	}
	return a, nil
}

// Read decodes an artifact from r. Every delta page must lie inside the
// header's pool, so a replay can apply the deltas without a range check.
func Read(r io.Reader) (*Artifact, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var b [8]byte
	ru32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, b[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(b[:4]), nil
	}
	ru64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, b[:8]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b[:8]), nil
	}

	m, err := ru32()
	if err != nil {
		return nil, err
	}
	if m != Magic {
		return nil, ErrBadMagic
	}
	v, err := ru32()
	if err != nil {
		return nil, err
	}
	if v != version {
		return nil, fmt.Errorf("record: artifact version %d, this build reads version %d; re-record it", v, version)
	}
	a := &Artifact{Trace: trace.New()}
	if a.Identity, err = ru64(); err != nil {
		return nil, err
	}
	if a.PoolSize, err = ru64(); err != nil {
		return nil, err
	}
	n, err := ru32()
	if err != nil {
		return nil, err
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("record: target name of %d bytes", n)
	}
	name := make([]byte, n)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	a.Target = string(name)
	if _, err := a.Trace.ReadFrom(br); err != nil {
		return nil, err
	}

	nFP, err := ru32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nFP; i++ {
		var fp FPRecord
		if fp.Fingerprint, err = ru64(); err != nil {
			return nil, err
		}
		nDelta, err := ru32()
		if err != nil {
			return nil, err
		}
		for j := uint32(0); j < nDelta; j++ {
			idx, err := ru32()
			if err != nil {
				return nil, err
			}
			ln, err := ru32()
			if err != nil {
				return nil, err
			}
			if ln > pmem.PageSize {
				return nil, fmt.Errorf("record: failure point %d: delta page %d of %d bytes", i, idx, ln)
			}
			if end := uint64(idx)*pmem.PageSize + uint64(ln); end > a.PoolSize {
				return nil, fmt.Errorf("record: failure point %d: delta page %d ends at byte %d, outside the %d-byte pool",
					i, idx, end, a.PoolSize)
			}
			d := pmem.DeltaPage{Index: int(idx), Data: make([]byte, ln)}
			if _, err := io.ReadFull(br, d.Data); err != nil {
				return nil, err
			}
			fp.Delta = append(fp.Delta, d)
		}
		a.FPs = append(a.FPs, fp)
	}
	return a, nil
}
