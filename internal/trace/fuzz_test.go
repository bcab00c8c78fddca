package trace

import (
	"bytes"
	"testing"
)

// seedTrace is a few entries covering every stage and both flag bits.
func seedTrace() *Trace {
	t := New()
	t.Append(Entry{Kind: RoIBegin, Stage: PreFailure})
	t.Append(Entry{Kind: Write, Addr: 64, Size: 8, IP: "w.go:12", TID: 1})
	t.Append(Entry{Kind: CLWB, Addr: 64, Size: 64, IP: "w.go:13", InLibrary: true})
	t.Append(Entry{Kind: SFence})
	t.Append(Entry{Kind: RegCommitRange, Addr: 0, Size: 8, Addr2: 64, Size2: 8, Stage: BothStages})
	t.Append(Entry{Kind: FuncBegin, Func: "tx_begin", Stage: PostFailure, SkipDetection: true})
	t.Append(Entry{Kind: Read, Addr: 64, Size: 8, Stage: PostFailure, InLibrary: true, SkipDetection: true})
	return t
}

// FuzzReadFrom feeds arbitrary bytes to the XFDT decoder: it must never
// panic, and every trace it accepts must re-encode through WriteTo to
// exactly the bytes ReadFrom reports it consumed. The committed seed
// (testdata/fuzz/FuzzReadFrom) is seedTrace written by WriteTo.
func FuzzReadFrom(f *testing.F) {
	var seed bytes.Buffer
	if _, err := seedTrace().WriteTo(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		var tr Trace
		n, err := tr.ReadFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := tr.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data[:n]) {
			t.Fatalf("accepted %d bytes re-encode differently:\nread:  %x\nwrite: %x", n, data[:n], out.Bytes())
		}
	})
}
