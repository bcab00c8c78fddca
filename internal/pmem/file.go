package pmem

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
)

// File-backed pools with msync-granularity persistence.
//
// The paper's testbed DAX-maps PMDK pool files; the in-memory Pool of all
// prior PRs dropped the file and kept only the image. This file restores
// the file: a file-backed root pool keeps two views of the PM image —
//
//   - p.buf, an anonymous private mapping (mapAnon): the working image,
//     holding every store immediately, persisted or not, exactly like the
//     in-memory backend (footnote 3 of the paper: the image copy includes
//     non-persisted updates; the shadow PM tracks persistence).
//   - file.view, a shared read-write mapping of the backing file
//     (mapShared): the durable image, advanced only at persist
//     boundaries.
//
// Persistence reuses the PR 4 page-granular dirty machinery: every store
// path that marks p.dirty also marks file.syncDirty (markDirtyLocked),
// and at each persist boundary — every SFence and every failure-point
// snapshot (SnapshotErr) — persistLocked walks the bitmap, coalesces
// consecutive dirty pages into maximal ranges, copies each dirty page
// into the shared view unless its on-disk content already matches
// (compare-skip), and issues one synchronous msync per range. The file
// therefore always holds the image as of the last boundary, a killed
// campaign leaves it intact for -resume, and the deterministic replay of
// a resumed campaign re-msyncs nothing: every compare hits (the skipped
// counter, asserted by the resume tests).
//
// Post-failure pools are untouched by all of this: FromSnapshot views
// have no file state, so a post-failure execution can never advance the
// durable image.
//
// Disk faults flow through FaultHooks (faults.go): Msync (disk-full),
// ShortMsync (a prefix of the range persists), TornMmap (a page reads
// back torn after writeback) fail persistLocked with a *HarnessFault,
// dirty bits for unpersisted pages stay set, and the detection frontend's
// existing retry-once-then-quarantine path either retries the writeback
// or quarantines the failure point — never reporting a program bug.

// fileState is the file-backed half of a root Pool; nil on in-memory
// pools and on COW views. The pointer is set once at construction; the
// fields mutate only under Pool.mu.
type fileState struct {
	f    *os.File
	path string
	view []byte // shared rw mapping of the backing file: the durable image
	// syncDirty is the page bitmap of working-image writes not yet
	// persisted to view. A sibling of Pool.dirty with a different reset
	// schedule: dirty clears per incremental snapshot, syncDirty per
	// successful writeback.
	syncDirty []uint64
	// pending stashes a persist failure raised at an SFence (which has no
	// error path) until the next SnapshotErr surfaces it to the frontend's
	// retry-then-quarantine handling.
	pending error
	// Persist counters, exposed by FileStats.
	ranges  uint64 // coalesced dirty ranges msync'd
	written uint64 // pages copied into the durable view
	skipped uint64 // dirty pages skipped because the view already matched
	closed  bool
}

// NewFileBacked creates (resume=false) or reopens (resume=true) a pool
// whose durable image lives in the file at path. Size is rounded up to a
// whole number of cache lines and must match an existing file exactly —
// a size mismatch means the file belongs to a different campaign. The
// file is flock'd exclusively for the life of the pool; hooks (may be
// nil) injects creation-time disk faults and is installed on the pool.
func NewFileBacked(name, path string, size int, resume bool, hooks *FaultHooks) (*Pool, error) {
	if size <= 0 {
		panic(fmt.Sprintf("pmem: pool %q must have positive size, got %d", name, size))
	}
	if !fileBackendSupported {
		return nil, fmt.Errorf("pmem: file-backed pool %s: only supported on linux", path)
	}
	sz := LineUp(uint64(size))

	flags := os.O_RDWR | os.O_CREATE
	if !resume {
		flags |= os.O_EXCL
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if os.IsExist(err) {
		return nil, fmt.Errorf("pmem: pool file %s already exists; pass -resume to continue the campaign that owns it, or remove it to start over", path)
	}
	if err != nil {
		return nil, fmt.Errorf("pmem: open pool file: %w", err)
	}
	fail := func(err error) (*Pool, error) {
		f.Close()
		if !resume {
			os.Remove(path)
		}
		return nil, err
	}

	if err := lockFile(f); err != nil {
		return fail(fmt.Errorf("pmem: pool file %s is locked by another process (two shards sharing one pool file?): %w", path, err))
	}
	st, err := f.Stat()
	if err != nil {
		return fail(fmt.Errorf("pmem: stat pool file: %w", err))
	}
	switch st.Size() {
	case 0:
		// Fresh file (or a resume of a campaign killed before the extend
		// completed): size it to the pool.
		if hooks != nil && hooks.Extend != nil {
			if err := hooks.Extend(sz); err != nil {
				return fail(&HarnessFault{Op: "pool-extend", Err: err})
			}
		}
		if err := f.Truncate(int64(sz)); err != nil {
			return fail(&HarnessFault{Op: "pool-extend", Err: err})
		}
	case int64(sz):
		if !resume {
			// Unreachable thanks to O_EXCL, but keep the invariant local.
			return fail(fmt.Errorf("pmem: pool file %s already exists", path))
		}
	default:
		return fail(fmt.Errorf("pmem: pool file %s has size %d, want %d; it belongs to a different campaign or pool size", path, st.Size(), sz))
	}

	view, err := mapShared(f, int(sz))
	if err != nil {
		return fail(fmt.Errorf("pmem: map pool file: %w", err))
	}
	buf, err := mapAnon(int(sz))
	if err != nil {
		unmap(view)
		return fail(fmt.Errorf("pmem: map working image: %w", err))
	}
	return &Pool{
		name:   name,
		size:   sz,
		buf:    buf,
		dirty:  make([]uint64, (numPages(sz)+63)/64),
		faults: hooks,
		file: &fileState{
			f:         f,
			path:      path,
			view:      view,
			syncDirty: make([]uint64, (numPages(sz)+63)/64),
		},
	}, nil
}

// FileBacked reports whether the pool's durable image lives in a file.
func (p *Pool) FileBacked() bool { return p.file != nil }

// FileStats reports the persist counters of a file-backed pool: coalesced
// dirty ranges msync'd, pages written back, and dirty pages skipped
// because their on-disk content already matched (compare-skip — the
// mechanism that makes a resumed campaign's replay re-msync nothing).
// All zero for in-memory pools.
func (p *Pool) FileStats() (ranges, written, skipped uint64) {
	if p.file == nil {
		return 0, 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.file.ranges, p.file.written, p.file.skipped
}

// Close persists any remaining dirty pages, fsyncs, unmaps and closes the
// backing file, releasing the pool-file lock. Closing an in-memory pool
// is a no-op, so the detection frontend closes unconditionally. The pool
// must not be used after Close; a persist or sync failure is returned as
// a *HarnessFault after the teardown completes.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	fs := p.file
	if fs == nil || fs.closed {
		return nil
	}
	err := p.persistLocked()
	if serr := fs.f.Sync(); serr != nil && err == nil {
		err = &HarnessFault{Op: "msync", Err: serr}
	}
	unmap(fs.view)
	unmap(p.buf)
	fs.f.Close()
	fs.view = nil
	fs.closed = true
	p.buf = nil
	return err
}

// persistLocked writes every syncDirty page back to the durable view and
// msyncs each coalesced range; callers hold p.mu. A stashed SFence-time
// failure is surfaced (once) before any new writeback. On failure the
// unpersisted pages keep their dirty bits, so a retry — or the final
// persist in Close — covers exactly what is still missing.
func (p *Pool) persistLocked() error {
	fs := p.file
	if fs == nil || fs.closed {
		return nil
	}
	if err := fs.pending; err != nil {
		fs.pending = nil
		return err
	}
	n := numPages(p.size)
	for pg := 0; pg < n; {
		if fs.syncDirty[pg/64]&(1<<(pg%64)) == 0 {
			pg++
			continue
		}
		end := pg + 1
		for end < n && fs.syncDirty[end/64]&(1<<(end%64)) != 0 {
			end++
		}
		if err := p.persistRangeLocked(pg, end); err != nil {
			return err
		}
		pg = end
	}
	return nil
}

// persistRangeLocked writes back one maximal run of dirty pages
// [start, end) and msyncs it, consulting the disk fault hooks: Msync
// fails the whole range up front (disk-full), ShortMsync persists only a
// prefix, TornMmap fails a page after its write-back read-back. Callers
// hold p.mu.
func (p *Pool) persistRangeLocked(start, end int) error {
	fs := p.file
	h := p.faults
	lo := uint64(start) * PageSize
	_, hi := pageBounds(end-1, p.size)
	fs.ranges++

	if h != nil && h.Msync != nil {
		if err := h.Msync(lo, hi-lo); err != nil {
			return &HarnessFault{Op: "msync", Err: err}
		}
	}
	limit := hi
	var shortErr error
	if h != nil && h.ShortMsync != nil {
		if keep, err := h.ShortMsync(lo, hi-lo); err != nil {
			if lo+keep < hi {
				limit = lo + keep
			}
			shortErr = &HarnessFault{Op: "short-msync", Err: err}
		}
	}
	mutant := shortMsyncForTest
	if mutant && lo+shortMsyncKeep < limit {
		// The seeded mutant: silently persist only a prefix and, below,
		// clear the range's bits anyway — a short write whose error was
		// dropped on the floor.
		limit = lo + shortMsyncKeep
	}

	for pg := start; pg < end; pg++ {
		plo, phi := pageBounds(pg, p.size)
		clearBit := func() { fs.syncDirty[pg/64] &^= 1 << (pg % 64) }
		if plo >= limit {
			if mutant {
				clearBit()
			}
			continue
		}
		whi := phi
		if whi > limit {
			whi = limit
		}
		if whi == phi && bytes.Equal(p.buf[plo:phi], fs.view[plo:phi]) {
			fs.skipped++
			clearBit()
			continue
		}
		copy(fs.view[plo:whi], p.buf[plo:whi])
		fs.written++
		if whi < phi {
			// Short write: the page tail is stale, keep it dirty for the
			// retry (the mutant lies and marks it clean).
			if mutant {
				clearBit()
			}
			continue
		}
		if h != nil && h.TornMmap != nil {
			if err := h.TornMmap(uint64(pg)); err != nil {
				// Simulate the tear for real: the durable page is corrupt
				// until a retry rewrites it, so compare-skip cannot mask
				// the fault and the retry consults the hook again.
				tearPage(fs.view[plo:phi])
				return &HarnessFault{Op: "torn-mmap", Err: err}
			}
		}
		// Read the page back through the shared mapping: a genuinely torn
		// write-back must surface here, not as a bogus bug report later.
		if !bytes.Equal(fs.view[plo:phi], p.buf[plo:phi]) {
			return &HarnessFault{Op: "torn-mmap",
				Err: fmt.Errorf("page 0x%x read back torn after writeback", pg)}
		}
		clearBit()
	}

	if limit > lo {
		if err := msyncRange(fs.view[lo:limit]); err != nil {
			return &HarnessFault{Op: "msync", Err: err}
		}
	}
	return shortErr
}

// DiskFaultHooksFromSpec parses a deterministic disk-fault spec of the
// form "class:N", where class is one of disk-full, short-msync or
// torn-mmap and N is a 0-based consult index. The returned hooks fail the
// Nth and N+1th consult of that class's operation — both, so the
// frontend's retry-once also faults and the affected failure point is
// quarantined rather than silently healed — and succeed every other
// consult. The CLI wires this to the XFDETECTOR_DISK_FAULT environment
// variable when -pool-file is set; the CI smoke step depends on it.
func DiskFaultHooksFromSpec(spec string) (*FaultHooks, error) {
	class, nstr, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("pmem: disk fault spec %q: want class:N", spec)
	}
	n, err := strconv.ParseUint(nstr, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("pmem: disk fault spec %q: bad consult index: %v", spec, err)
	}
	var consults atomic.Uint64
	hit := func() bool {
		i := consults.Add(1) - 1
		return i == n || i == n+1
	}
	h := &FaultHooks{}
	switch class {
	case "disk-full":
		h.Msync = func(addr, size uint64) error {
			if hit() {
				return errNoSpace
			}
			return nil
		}
	case "short-msync":
		h.ShortMsync = func(addr, size uint64) (uint64, error) {
			if hit() {
				return size / 2, fmt.Errorf("injected short msync: %d of %d bytes reached the medium", size/2, size)
			}
			return 0, nil
		}
	case "torn-mmap":
		h.TornMmap = func(page uint64) error {
			if hit() {
				return fmt.Errorf("injected torn mmap: page 0x%x read back torn", page)
			}
			return nil
		}
	default:
		return nil, fmt.Errorf("pmem: disk fault spec %q: unknown class %q (want disk-full, short-msync or torn-mmap)", spec, class)
	}
	return h, nil
}
