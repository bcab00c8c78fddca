package shadow

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"github.com/pmemgo/xfdetector/internal/trace"
)

// everyKindTrace exercises every kind: commit-variable geometry, plain and
// non-temporal stores, flushes (two redundant), fences, committed and
// aborted transactions (one duplicate TX_ADD), allocations, frees and the
// marker kinds.
func everyKindTrace() []trace.Entry {
	e := func(k trace.Kind, addr, size uint64) trace.Entry {
		return trace.Entry{Kind: k, Addr: addr, Size: size}
	}
	reg := e(trace.RegCommitRange, 0x100, 8)
	reg.Addr2, reg.Size2 = 0x200, 64
	return []trace.Entry{
		e(trace.FuncBegin, 0, 0), e(trace.RoIBegin, 0, 0),
		e(trace.RegCommitVar, 0x100, 8), reg,
		e(trace.Write, 0, 64), e(trace.Read, 0, 64), e(trace.CLWB, 0, 64), e(trace.SFence, 0, 0),
		e(trace.TxBegin, 0, 0), e(trace.TxAdd, 0x40, 64), e(trace.TxAdd, 0x40, 64),
		e(trace.Write, 0x40, 64), e(trace.TxAlloc, 0x400, 64), e(trace.TxFree, 0x400, 64),
		e(trace.TxCommit, 0, 0),
		e(trace.CommitVarWrite, 0x100, 8), e(trace.Write, 0x200, 8), e(trace.NTStore, 0x300, 64),
		e(trace.CLFlush, 0x200, 64), e(trace.CLFlush, 0x200, 64), e(trace.FailurePoint, 0, 0),
		e(trace.SFence, 0, 0),
		e(trace.TxBegin, 0, 0), e(trace.TxAdd, 0x80, 8), e(trace.Write, 0x80, 8), e(trace.TxAbort, 0, 0),
		e(trace.AtomicAlloc, 0x500, 64), e(trace.Read, 0x500, 8), e(trace.CLWB, 0x580, 64),
		e(trace.RoIEnd, 0, 0), e(trace.FuncEnd, 0, 0),
	}
}

// shadowView is everything observable about a shadow after one entry.
func shadowView(t *testing.T, s *PM, perf []PerfBug) string {
	t.Helper()
	var b bytes.Buffer
	fmt.Fprintf(&b, "fp=%x clock=%d perf=%v\n", s.CrashFingerprint(), s.Clock(), perf)
	for a := uint64(0); a < 0x600; a++ {
		fmt.Fprintf(&b, "%v/%d/%d/%v/%s ", s.State(a), s.WriteEpoch(a), s.PersistEpoch(a), s.TxProtected(a), s.WriterIP(a))
	}
	writeEngineState(&b, s)
	return b.String()
}

// writeEngineState prints the shadow's whole pre-failure state:
// the writer table, pendingLines in address order, the transaction state,
// commit variables, assocs, and every live page's arrays together with
// its cached fingerprint hash.
func writeEngineState(b *bytes.Buffer, s *PM) {
	fmt.Fprintf(b, "\nsize=%d clock=%d txDepth=%d txGen=%d writers=%q\n", s.size, s.clock, s.txDepth, s.txGen, s.writers)
	lines := make([]uint64, 0, len(s.pendingLines))
	for line := range s.pendingLines {
		lines = append(lines, line)
	}
	slices.Sort(lines)
	for _, line := range lines {
		fmt.Fprintf(b, "pending %#x %v\n", line, s.pendingLines[line])
	}
	fmt.Fprintf(b, "curTx=%+v assocs=%+v\n", s.curTx, s.assocs)
	for _, cv := range s.commitVars {
		fmt.Fprintf(b, "commitVar %+v\n", *cv)
	}
	for pi, pg := range s.pages {
		if pg == nil {
			continue
		}
		fmt.Fprintf(b, "page %d anyTxSafe=%v fpHash=%x fpValid=%v\n", pi, pg.anyTxSafe, pg.fpHash, pg.fpValid)
		for _, arr := range []any{pg.state[:], pg.writeEpoch[:], pg.persistEpoch[:], pg.writerIdx[:],
			pg.txSafe[:], pg.txAddGen[:], pg.txExplicit[:]} {
			binary.Write(b, binary.LittleEndian, arr)
		}
	}
}

// applyWithIPs replays everyKindTrace, giving entry i the IP ip(i, kind),
// and returns the shadow view after every entry.
func applyWithIPs(t *testing.T, ip func(int, trace.Kind) string) []string {
	s := NewPM(4096)
	var perf []PerfBug
	s.SetPerfBugHandler(func(b PerfBug) { perf = append(perf, b) })
	var views []string
	for i, e := range everyKindTrace() {
		e.IP = ip(i, e.Kind)
		s.Apply(e)
		views = append(views, shadowView(t, s, perf))
	}
	return views
}

// TestIPKindsCoverApply pins the contract behind eager capture of
// IPKinds only: for every kind outside the set, an entry's IP never
// changes Apply's state, the perf-bug reports or CrashFingerprint, so
// fingerprints and verdict-cache keys cannot drift when those IPs are not
// captured. The kinds inside the set must matter, or the check is vacuous
// — all but TX_ALLOC, whose IP Apply hands to the TX_ADD path, which reads
// it only for explicit TX_ADDs.
func TestIPKindsCoverApply(t *testing.T) {
	seen := map[trace.Kind]bool{}
	for _, e := range everyKindTrace() {
		seen[e.Kind] = true
	}
	for k := trace.Kind(0); k.Valid(); k++ {
		if !seen[k] {
			t.Fatalf("trace lacks %s", k)
		}
	}
	all := applyWithIPs(t, func(i int, _ trace.Kind) string { return fmt.Sprintf("w.go:%d", i) })
	for _, other := range []string{"", "other.go:7"} {
		narrowed := applyWithIPs(t, func(i int, k trace.Kind) string {
			if IPKinds.Has(k) {
				return fmt.Sprintf("w.go:%d", i)
			}
			return other
		})
		for i := range all {
			if all[i] != narrowed[i] {
				t.Fatalf("entry %d (%s): IPs outside IPKinds changed the shadow",
					i, everyKindTrace()[i].Kind)
			}
		}
	}
	for k := trace.Kind(0); k.Valid(); k++ {
		if !IPKinds.Has(k) || k == trace.TxAlloc {
			continue
		}
		moved := applyWithIPs(t, func(i int, kk trace.Kind) string {
			if kk == k {
				return "moved.go:1"
			}
			return fmt.Sprintf("w.go:%d", i)
		})
		if moved[len(moved)-1] == all[len(all)-1] {
			t.Errorf("the IP of %s is in IPKinds but never reaches the shadow", k)
		}
	}
}
