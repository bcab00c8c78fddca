package shadow

// Crash-state fingerprinting for representative-testing pruning.
//
// Two failure points whose shadow states classify every byte identically —
// and attribute it to the same pre-failure writer — produce the same
// post-failure verdict for any post-failure execution that branches only on
// classification-visible state, so the detection engine tests one
// representative per fingerprint class and attributes its verdict to the
// members (core's pruning layer; Pathfinder/WITCHER-style representative
// testing).
//
// CrashFingerprint therefore hashes, per byte, exactly the inputs of
// PostChecker.classify collapsed to its *outcome space*: the symbol is the
// classification bucket the byte would fall into (never-written, benign
// commit variable, tx-protected, unpersisted race, Eq. 3 semantic bug,
// consistent) paired with its interned writer index. Raw epochs, data
// values, the pending-line bookkeeping and the transaction/scratch state
// are deliberately excluded: they either cannot influence a post-failure
// verdict or enter it only through the Eq. 3 outcome, which the symbol
// already encodes. This is what lets long runs of uniform update loops
// collapse into one class.
//
// The shadow caches one hash per 4 KiB shadow page (page.fpHash),
// invalidated by the mutation paths (stores, flushes, fences, TX_ADD,
// commit-record updates); a failure point then only re-hashes the pages
// dirtied since the previous one. Commit-variable geometry (which addresses are commit
// variables or associated with one) is folded into the final fingerprint
// directly; registrations additionally drop the cached hashes of the pages
// their ranges overlap, since the per-byte symbols under new geometry
// change bucket.

// FNV-1a 64-bit parameters.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func fnvMix(h, v uint64) uint64 {
	h ^= v
	return h * fnvPrime
}

// emptyPageHash is the hash of a page whose every byte has the zero symbol
// (writeEpoch 0). Pages hashing to it contribute nothing to a fingerprint,
// exactly like never-allocated pages, so a fingerprint does not depend on
// which untouched pages happen to be allocated.
var emptyPageHash = func() uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < pageBytes; i++ {
		h = fnvMix(h, 0)
	}
	return h
}()

// collidingPageHash is the constant the colliding-fingerprint mutant
// substitutes for every non-empty page hash (mutation.go); distinct from
// emptyPageHash so allocated pages still differ from untouched ones.
const collidingPageHash = 0x9e3779b97f4a7c15

// fpSymbol maps one byte's shadow metadata to its classification symbol,
// mirroring PostChecker.classify's decision order exactly. The writer index
// is folded in because report identity (DedupKey) depends on the writer
// location: two states that classify alike but blame different writers must
// not share a class.
func (s *PM) fpSymbol(b uint64, st PersistState, we uint32, pe uint32, txSafe bool, w uint32) uint64 {
	if we == 0 {
		return 0
	}
	if s.isCommitVarByte(b) {
		return 1<<32 | uint64(w)
	}
	if txSafe {
		return 2<<32 | uint64(w)
	}
	if st != Persisted {
		// Modified → 4, WritebackPending → 5.
		return (3+uint64(st))<<32 | uint64(w)
	}
	if cv := s.assocFor(b); cv != nil && !semanticallyConsistent(cv, we, pe) {
		return 7<<32 | uint64(w)
	}
	return 6<<32 | uint64(w)
}

// pageHash folds the symbols of one shadow page, caching the result on the
// page until a mutation invalidates it.
func (s *PM) pageHash(pi int, pg *page) uint64 {
	if pg.fpValid {
		return pg.fpHash
	}
	base := uint64(pi) << pageShift
	h := uint64(fnvOffset)
	for i := 0; i < pageBytes; i++ {
		b := base + uint64(i)
		h = fnvMix(h, s.fpSymbol(b, pg.state[i], pg.writeEpoch[i], pg.persistEpoch[i], pg.txSafe[i], pg.writerIdx[i]))
	}
	pg.fpHash = h
	pg.fpValid = true
	return h
}

// CrashFingerprint returns the canonical crash-state fingerprint of the
// shadow's current trace position: a hash over the classification symbols
// of every touched page plus the commit-variable geometry. Equal
// fingerprints mean every byte classifies identically with an identical
// writer attribution. Call it on the canonical shadow, at a failure point,
// from the thread advancing the shadow.
func (s *PM) CrashFingerprint() uint64 {
	h := uint64(fnvOffset)
	for pi, pg := range s.pages {
		if pg == nil {
			continue
		}
		ph := s.pageHash(pi, pg)
		if ph == emptyPageHash {
			continue
		}
		if collidingFingerprintForTest {
			ph = collidingPageHash
		}
		h = fnvMix(h, uint64(pi)+1)
		h = fnvMix(h, ph)
	}
	// Commit-variable geometry: registering a variable or an associated
	// range changes how bytes classify without touching any page, so the
	// geometry is part of the fingerprint. (The commit-write *records* enter
	// through the Eq. 3 outcomes in the page symbols; their mutations
	// invalidate the affected pages — see noteCommitWrites.)
	h = fnvMix(h, uint64(len(s.commitVars)))
	for _, cv := range s.commitVars {
		h = fnvMix(h, cv.addr)
		h = fnvMix(h, cv.size)
	}
	h = fnvMix(h, uint64(len(s.assocs)))
	for _, a := range s.assocs {
		h = fnvMix(h, uint64(a.varIdx))
		h = fnvMix(h, a.addr)
		h = fnvMix(h, a.size)
	}
	return h
}

// invalidateFP drops a page's cached fingerprint hash. The stale-fingerprint
// mutant (mutation.go) freezes stuck pages to prove the differential suite
// catches a missing invalidation.
func (pg *page) invalidateFP() {
	if pg.fpStuck {
		return
	}
	pg.fpValid = false
}

// invalidateRangeFP invalidates the cached page hashes overlapping
// [addr, addr+size): used when a commit variable's write record changes,
// which flips Eq. 3 outcomes of its associated bytes without any page
// mutation. Pages never allocated need no invalidation (nothing cached).
func (s *PM) invalidateRangeFP(addr, size uint64) {
	addr, end := s.clip(addr, size)
	for b := addr; b < end; {
		pi, _, _, next := pageSpan(b, end)
		if pg := s.pages[pi]; pg != nil {
			pg.invalidateFP()
		}
		b = next
	}
}
