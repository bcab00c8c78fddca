package pmem

import (
	"strings"
	"testing"

	"github.com/pmemgo/xfdetector/internal/trace"
)

// pullSink records each delivered entry's eager IP next to the IP
// DeliveredIP pulls for it from inside Record.
type pullSink struct{ eager, pulled []string }

func (s *pullSink) Record(e trace.Entry) {
	s.eager = append(s.eager, e.IP)
	s.pulled = append(s.pulled, DeliveredIP())
}

// driveEveryAccessor issues one call of every traced pool entry point,
// directly and through the in-package helpers that nest them (Persist over
// CLWB and SFence, Copy over emit).
func driveEveryAccessor(p *Pool) {
	var buf [8]byte
	p.Store(0, buf[:])
	p.NTStore(64, buf[:])
	p.Load(0, buf[:])
	p.Store8(8, 1)
	p.Load8(8)
	p.Store16(16, 2)
	p.Load16(16)
	p.Store32(24, 3)
	p.Load32(24)
	p.Store64(32, 4)
	p.Load64(32)
	p.Memset(128, 0xAB, 64)
	p.Copy(256, 128, 64)
	p.CLWB(0, 64)
	p.CLFlush(64, 64)
	p.SFence()
	p.Persist(128, 64)
	p.Announce(trace.TxAdd, 0, 8, "")
	p.Announce(trace.FuncBegin, 0, 0, "fn")
	p.AnnounceEntry(trace.Entry{Kind: trace.TxAlloc, Addr: 512, Size: 64})
	p.AnnounceEntry(trace.Entry{Kind: trace.RoIBegin})
}

// capture drives every accessor on a fresh pool capturing kinds eagerly.
func capture(t *testing.T, kinds trace.KindSet) *pullSink {
	t.Helper()
	p := New("ip", 4096)
	p.SetIPCapture(kinds)
	s := &pullSink{}
	p.SetSink(s)
	driveEveryAccessor(p)
	return s
}

// TestDeliveredIPMatchesEagerCapture pins the on-demand pull to the eager
// capture: for every accessor and AnnounceEntry, the IP a sink pulls equals
// the IP the pool captured, with eager capture on and off, and under a
// shrunken shallow window whose fallback the nested helpers must reach.
func TestDeliveredIPMatchesEagerCapture(t *testing.T) {
	want := capture(t, trace.AllKinds)
	if len(want.eager) != 23 {
		t.Fatalf("captured %d entries, want 23", len(want.eager))
	}
	for i, ip := range want.eager {
		if !strings.HasPrefix(ip, "pmem/ipcache_test.go:") {
			t.Errorf("entry %d: eager IP %q is not the calling test line", i, ip)
		}
		if want.pulled[i] != ip {
			t.Errorf("entry %d: pulled IP %q, eager IP %q", i, want.pulled[i], ip)
		}
	}

	off := capture(t, 0)
	for i := range off.eager {
		if off.eager[i] != "" {
			t.Errorf("entry %d: IP %q captured with capture off", i, off.eager[i])
		}
		if off.pulled[i] != want.eager[i] {
			t.Errorf("entry %d: pulled IP %q with capture off, eager IP %q", i, off.pulled[i], want.eager[i])
		}
	}

	defer func(w int) { shallowIPFrames = w }(shallowIPFrames)
	for _, w := range []int{1, 2, 3} {
		shallowIPFrames = w
		got := capture(t, trace.AllKinds)
		for i := range want.eager {
			if got.eager[i] != want.eager[i] || got.pulled[i] != want.eager[i] {
				t.Errorf("window %d, entry %d: eager %q pulled %q, want %q",
					w, i, got.eager[i], got.pulled[i], want.eager[i])
			}
		}
	}
}

// TestIPCaptureKinds: only the selected kinds carry an eager IP, and an
// IP preset on an announced entry is kept.
func TestIPCaptureKinds(t *testing.T) {
	p := New("ip", 4096)
	p.SetIPCapture(trace.KindsOf(trace.Write))
	rec := &recorder{}
	p.SetSink(rec)
	p.Store64(0, 1)
	p.Load64(0)
	p.CLWB(0, 8)
	p.AnnounceEntry(trace.Entry{Kind: trace.Read, Addr: 0, Size: 8, IP: "preset.go:1"})
	for i, wantIP := range []bool{true, false, false, true} {
		e := rec.entries[i]
		if (e.IP != "") != wantIP {
			t.Errorf("%s entry: IP %q, want captured=%v", e.Kind, e.IP, wantIP)
		}
	}
	if ip := rec.entries[3].IP; ip != "preset.go:1" {
		t.Errorf("preset IP replaced by %q", ip)
	}
}

// TestDeliveredIPOutsideRecord: with no deliver frame on the stack there is
// nothing to pull.
func TestDeliveredIPOutsideRecord(t *testing.T) {
	if ip := DeliveredIP(); ip != "" {
		t.Errorf("DeliveredIP() outside a sink = %q, want \"\"", ip)
	}
}
