package pmem

import (
	"bytes"
	"testing"

	"github.com/pmemgo/xfdetector/internal/trace"
)

// pageBase returns the address of page pg's first byte in s, for
// page-sharing assertions.
func pageBase(s *Snapshot, pg int) *byte { return &s.pages[pg][0] }

func TestIncrementalSnapshotSharesCleanPages(t *testing.T) {
	p := New("inc", 4*PageSize)
	p.Store64(0, 1)
	p.Store64(3*PageSize, 2)
	s1 := p.TakeSnapshot()
	if !bytes.Equal(s1.Bytes(), p.Snapshot()) {
		t.Fatal("first snapshot does not match the image")
	}

	p.Store64(PageSize+8, 3) // dirty page 1 only
	s2 := p.TakeSnapshot()
	if !bytes.Equal(s2.Bytes(), p.Snapshot()) {
		t.Fatal("second snapshot does not match the image")
	}
	for pg := 0; pg < 4; pg++ {
		shared := pageBase(s1, pg) == pageBase(s2, pg)
		if pg == 1 && shared {
			t.Fatalf("dirty page %d was not recloned", pg)
		}
		if pg != 1 && !shared {
			t.Fatalf("clean page %d was recloned instead of shared", pg)
		}
	}

	// A snapshot with nothing dirtied in between is all pointer sharing.
	s3 := p.TakeSnapshot()
	for pg := 0; pg < 4; pg++ {
		if pageBase(s2, pg) != pageBase(s3, pg) {
			t.Fatalf("no-delta snapshot recloned page %d", pg)
		}
	}
}

// TestSnapshotSharesZeroPages: all-zero pages of an incremental snapshot,
// untouched or re-zeroed, share one read-only page; a view writing into one
// privatizes it and leaves the shared page and other views zero.
func TestSnapshotSharesZeroPages(t *testing.T) {
	p := New("zero", 4*PageSize)
	p.Store64(PageSize, 1)
	p.Memset(2*PageSize, 0, PageSize) // dirty, but zero
	s := p.TakeSnapshot()
	for _, pg := range []int{0, 2, 3} {
		if pageBase(s, pg) != &zeroPage[0] {
			t.Errorf("zero page %d was cloned", pg)
		}
	}
	if pageBase(s, 1) == &zeroPage[0] {
		t.Fatal("written page 1 shares the zero page")
	}

	v1, v2 := FromSnapshot("v1", s), FromSnapshot("v2", s)
	v1.Store64(8, 7)
	if v1.Load64(8) != 7 || v2.Load64(8) != 0 {
		t.Errorf("views read %d and %d after v1's write, want 7 and 0", v1.Load64(8), v2.Load64(8))
	}
	if !bytes.Equal(zeroPage, make([]byte, PageSize)) {
		t.Fatal("a view wrote through to the shared zero page")
	}

	p.Store64(16, 5) // page 0 leaves the zero page in the next snapshot
	s2 := p.TakeSnapshot()
	if pageBase(s2, 0) == &zeroPage[0] || pageBase(s2, 3) != &zeroPage[0] {
		t.Error("second snapshot: written page 0 shared, or clean zero page 3 recloned")
	}
	if !bytes.Equal(s2.Bytes(), p.Snapshot()) {
		t.Error("second snapshot does not match the image")
	}
}

func TestSnapshotImmutableAfterRootWrites(t *testing.T) {
	p := New("immutable", 2*PageSize)
	p.Store64(16, 0xAA)
	s := p.TakeSnapshot()
	want := s.Bytes()
	p.Store64(16, 0xBB)
	p.Memset(PageSize, 0x7, 64)
	if !bytes.Equal(s.Bytes(), want) {
		t.Fatal("root-pool writes mutated a published snapshot")
	}
}

func TestFromSnapshotCopyOnWrite(t *testing.T) {
	p := New("root", 4*PageSize)
	p.Store64(8, 0x11)
	p.Store64(PageSize, 0x22)
	s := p.TakeSnapshot()

	v1 := FromSnapshot("view1", s)
	v2 := FromSnapshot("view2", s)
	if v1.Load64(8) != 0x11 || v1.Load64(PageSize) != 0x22 {
		t.Fatal("view does not reflect the snapshot")
	}

	v1.Store64(8, 0x99) // privatizes page 0 of view 1 only
	if v1.Load64(8) != 0x99 {
		t.Fatal("view write not visible to the view")
	}
	if v2.Load64(8) != 0x11 {
		t.Fatal("one view's write leaked into a sibling view")
	}
	if s.Bytes()[8] != 0x11 {
		t.Fatal("view write mutated the shared snapshot")
	}
	if !bytes.Equal(v1.Bytes()[PageSize:], s.Bytes()[PageSize:]) {
		t.Fatal("unwritten pages of the view diverged from the snapshot")
	}
}

func TestCOWViewCrossPageOps(t *testing.T) {
	// Pool sized to a non-page multiple so the last page is short.
	p := New("cross", 2*PageSize+128)
	data := make([]byte, PageSize+100)
	for i := range data {
		data[i] = byte(i)
	}
	p.Store(PageSize-50, data) // spans pages 0,1,2
	s := p.TakeSnapshot()
	v := FromSnapshot("view", s)

	got := make([]byte, len(data))
	v.Load(PageSize-50, got)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page load from COW view mismatch")
	}

	v.Memset(PageSize-10, 0xEE, 20) // privatizes pages 0 and 1
	v.Copy(2*PageSize, PageSize-10, 20)
	chk := make([]byte, 20)
	v.Load(2*PageSize, chk)
	for _, b := range chk {
		if b != 0xEE {
			t.Fatal("COW memset+copy round-trip mismatch")
		}
	}
	if s.Bytes()[PageSize-1] != data[49] {
		t.Fatal("COW memset mutated the snapshot")
	}
	if !bytes.Equal(v.Snapshot(), v.Bytes()) {
		t.Fatal("snapshot of a COW view does not match its image")
	}

	// A snapshot taken from the view must be isolated from later writes.
	sv := v.TakeSnapshot()
	want := sv.Bytes()
	v.Store64(PageSize, 0xDEAD)
	v.Store64(2*PageSize+64, 0xBEEF)
	if !bytes.Equal(sv.Bytes(), want) {
		t.Fatal("view writes mutated a snapshot taken from the view")
	}
}

func TestPokePeekUntracedButDirtying(t *testing.T) {
	p := New("poke", 2*PageSize)
	sink := &recordingSink{}
	p.SetSink(sink)
	p.TakeSnapshot() // establish a base so the next snapshot is a delta

	p.Poke(PageSize+4, []byte{1, 2, 3})
	var got [3]byte
	p.Peek(PageSize+4, got[:])
	if got != [3]byte{1, 2, 3} {
		t.Fatal("Peek does not read back Poke")
	}
	if len(sink.entries) != 0 {
		t.Fatalf("Poke/Peek produced %d trace entries, want 0", len(sink.entries))
	}

	// The poke must have dirtied its page: the delta snapshot sees it.
	s := p.TakeSnapshot()
	if s.Bytes()[PageSize+5] != 2 {
		t.Fatal("incremental snapshot missed a poked page")
	}

	// Poke privatizes COW pages like a store.
	v := FromSnapshot("view", s)
	v.Poke(0, []byte{0xFF})
	var b [1]byte
	v.Peek(0, b[:])
	if b[0] != 0xFF || s.Bytes()[0] == 0xFF {
		t.Fatal("Poke on a COW view misbehaved")
	}
}

func TestStaleDirtyMutantMissesWrites(t *testing.T) {
	// Sanity-check the mutation hook itself: with the stale-dirty mutant
	// on, an incremental snapshot must (wrongly) reuse the base page.
	p := New("stale", 2*PageSize)
	p.TakeSnapshot()
	SetStaleDirtyForTest(true)
	defer SetStaleDirtyForTest(false)
	p.Store64(0, 0x42)
	s := p.TakeSnapshot()
	if s.Bytes()[0] == 0x42 {
		t.Fatal("stale-dirty mutant had no effect; the mutation test is toothless")
	}
}

func TestTornCOWMutantCorruptsPrivatizedPage(t *testing.T) {
	p := New("torn", 2*PageSize)
	p.Memset(0, 0x0F, 2*PageSize)
	s := p.TakeSnapshot()
	v := FromSnapshot("view", s)
	SetTornCOWForTest(true)
	defer SetTornCOWForTest(false)
	v.Store8(0, 0x1) // privatizes (and tears) page 0
	if v.Load8(PageSize/2) == 0x0F {
		t.Fatal("torn-COW mutant had no effect; the mutation test is toothless")
	}
	if v.Load8(PageSize+1) != 0x0F {
		t.Fatal("torn-COW mutant corrupted a page that was never privatized")
	}
}

func TestSnapshotKeepsNonPersistedData(t *testing.T) {
	// Footnote 3: the image copy includes data that is NOT guaranteed
	// persisted — no flush or fence ever happens here.
	p := New("footnote3", PageSize)
	sink := &recordingSink{}
	p.SetSink(sink)
	p.Store64(128, 0xCAFE)
	s := p.TakeSnapshot()
	if got := FromSnapshot("view", s).Load64(128); got != 0xCAFE {
		t.Fatalf("non-persisted store missing from snapshot view: got %#x", got)
	}
	for _, e := range sink.entries {
		if e.Kind == trace.SFence {
			t.Fatal("test bug: an SFence slipped in")
		}
	}
}
