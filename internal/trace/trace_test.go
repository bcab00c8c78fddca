package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k.Valid(); k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "Kind(") {
			t.Errorf("kind %d has no mnemonic", k)
		}
	}
	if Kind(200).Valid() {
		t.Error("kind 200 must be invalid")
	}
	if !strings.HasPrefix(Kind(200).String(), "Kind(") {
		t.Error("invalid kind must stringify defensively")
	}
}

func TestStageStrings(t *testing.T) {
	cases := map[Stage]string{PreFailure: "pre", PostFailure: "post", BothStages: "both"}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestEntryHelpers(t *testing.T) {
	e := Entry{Kind: Write, Addr: 100, Size: 8}
	if e.End() != 108 {
		t.Errorf("End = %d", e.End())
	}
	if !e.Overlaps(104, 8) || !e.Overlaps(96, 8) || e.Overlaps(108, 8) || e.Overlaps(92, 8) {
		t.Error("Overlaps wrong")
	}
	if got := e.String(); !strings.Contains(got, "WRITE 0x64 8") {
		t.Errorf("String = %q", got)
	}
}

func TestAppendAssignsSequence(t *testing.T) {
	tr := New()
	for i := 0; i < 10; i++ {
		seq := tr.Append(Entry{Kind: Write, Addr: uint64(i)})
		if seq != uint64(i) {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
	}
	if tr.Len() != 10 {
		t.Fatalf("len = %d", tr.Len())
	}
	if tr.At(3).Addr != 3 {
		t.Fatalf("At(3).Addr = %d", tr.At(3).Addr)
	}
	if got := len(tr.Slice(2, 5)); got != 3 {
		t.Fatalf("Slice(2,5) len = %d", got)
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Append(Entry{}) != 0 {
		t.Fatal("Reset did not reset")
	}
}

func TestCounts(t *testing.T) {
	tr := New()
	tr.Append(Entry{Kind: Write})
	tr.Append(Entry{Kind: Write})
	tr.Append(Entry{Kind: SFence})
	c := tr.Counts()
	if c[Write] != 2 || c[SFence] != 1 {
		t.Fatalf("counts = %v", c)
	}
}

// randomEntry builds a wire-safe random entry (valid kind, bounded
// strings).
func randomEntry(r *rand.Rand) Entry {
	return Entry{
		Addr:          r.Uint64() % (1 << 40),
		Size:          r.Uint64() % (1 << 20),
		Addr2:         r.Uint64() % (1 << 40),
		Size2:         r.Uint64() % (1 << 20),
		IP:            randString(r, 40),
		Func:          randString(r, 20),
		Kind:          Kind(r.Intn(int(numKinds))),
		Stage:         Stage(r.Intn(3)),
		TID:           r.Uint32(),
		InLibrary:     r.Intn(2) == 0,
		SkipDetection: r.Intn(2) == 0,
	}
}

func randString(r *rand.Rand, max int) string {
	n := r.Intn(max)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

// TestWireRoundTripProperty: encode/decode is the identity on any trace
// (property-based, testing/quick).
func TestWireRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tr := New()
		for i := 0; i < int(n); i++ {
			tr.Append(randomEntry(r))
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Logf("write: %v", err)
			return false
		}
		got := New()
		if _, err := got.ReadFrom(&buf); err != nil {
			t.Logf("read: %v", err)
			return false
		}
		return reflect.DeepEqual(tr.Entries(), got.Entries()) ||
			(tr.Len() == 0 && got.Len() == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWireRejectsGarbage(t *testing.T) {
	var tr Trace
	if _, err := tr.ReadFrom(bytes.NewReader([]byte("not a trace file at all"))); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	// Right magic, wrong version.
	var buf bytes.Buffer
	good := New()
	good.Append(Entry{Kind: Write})
	good.WriteTo(&buf)
	raw := buf.Bytes()
	raw[4] = 99 // version
	if _, err := tr.ReadFrom(bytes.NewReader(raw)); err != ErrBadVersion {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
	// Truncated body.
	buf.Reset()
	good.WriteTo(&buf)
	raw = buf.Bytes()[:buf.Len()-3]
	if _, err := tr.ReadFrom(bytes.NewReader(raw)); err == nil {
		t.Fatal("truncated stream accepted")
	}
	// Invalid kind byte.
	buf.Reset()
	good.WriteTo(&buf)
	raw = buf.Bytes()
	raw[16+40] = 250 // kind field of entry 0
	if _, err := tr.ReadFrom(bytes.NewReader(raw)); err == nil {
		t.Fatal("invalid kind accepted")
	}
	// Stage byte outside pre/post/both.
	buf.Reset()
	good.WriteTo(&buf)
	raw = buf.Bytes()
	raw[16+41] = byte(BothStages) + 1
	if _, err := tr.ReadFrom(bytes.NewReader(raw)); err == nil {
		t.Fatal("invalid stage accepted")
	}
	// Flag bit other than InLibrary/SkipDetection: decoding would drop it,
	// so the trace would re-encode to different bytes.
	buf.Reset()
	good.WriteTo(&buf)
	raw = buf.Bytes()
	raw[16+42] = 4
	if _, err := tr.ReadFrom(bytes.NewReader(raw)); err == nil {
		t.Fatal("unknown flag bit accepted")
	}
}

func TestWireRoundTripLongStringsTruncated(t *testing.T) {
	tr := New()
	tr.Append(Entry{Kind: Write, IP: strings.Repeat("x", 70000)})
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got := New()
	if _, err := got.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if len(got.At(0).IP) != 0xFFFF {
		t.Fatalf("IP length = %d, want capped at 65535", len(got.At(0).IP))
	}
}

func TestIsMemOp(t *testing.T) {
	if !Write.IsMemOp() || !CLWB.IsMemOp() || !RegCommitRange.IsMemOp() {
		t.Error("memory ops misclassified")
	}
	if SFence.IsMemOp() || TxBegin.IsMemOp() || FailurePoint.IsMemOp() {
		t.Error("non-memory ops misclassified")
	}
}
