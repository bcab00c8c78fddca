package pmem

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
)

// Instruction-pointer resolution.
//
// Every traced PM operation can record the source location of its caller —
// the stand-in for the instruction pointer Pin captures in the paper.
// Resolving a PC to file:line (runtime.CallersFrames plus string building)
// is far more expensive than collecting the raw PCs, and a workload
// executes the same handful of call sites millions of times, so the
// resolution is memoized per PC. The cache is package-global: PCs are
// process-stable, and sharing it across pools lets post-failure executions
// reuse what the pre-failure stage resolved.
//
// Unwinding the stack costs per frame, so the walk is shallow-first: a
// direct accessor call is resolved within shallowIPFrames frames, and only a
// caller reaching the pool through nested in-package helpers pays for the
// rest of the maxIPFrames budget.

const maxIPFrames = 16

// shallowIPFrames is the first window. Every accessor path in this package
// resolves within it; tests shrink it to drive the fallback.
var shallowIPFrames = 4

// ipCacheEntry is the memoized skip/answer decision for one PC. done means
// the walk stops at this PC with loc as the answer; otherwise the PC's
// frames were all internal and the walk continues to the next PC. deliver
// marks the frame of deliver itself (DeliveredIP's anchor).
type ipCacheEntry struct {
	loc     string
	done    bool
	deliver bool
}

var ipCache sync.Map // uintptr → ipCacheEntry

// callerIP returns the file:line of the nearest frame outside this package
// among the maxIPFrames frames starting skip frames above callerIP's caller
// (skip 0 is the caller itself), or "" when there is none.
func callerIP(skip int) string {
	var pcs [maxIPFrames]uintptr
	// skip+2 also skips runtime.Callers and callerIP.
	n := runtime.Callers(skip+2, pcs[:shallowIPFrames])
	if loc, ok := firstOutside(pcs[:n]); ok || n < shallowIPFrames {
		return loc
	}
	n = runtime.Callers(skip+2+shallowIPFrames, pcs[shallowIPFrames:])
	loc, _ := firstOutside(pcs[shallowIPFrames : shallowIPFrames+n])
	return loc
}

// firstOutside applies the walk's stop rule to pcs in order.
func firstOutside(pcs []uintptr) (string, bool) {
	for _, pc := range pcs {
		if ent := resolvePC(pc); ent.done {
			return ent.loc, true
		}
	}
	return "", false
}

// DeliveredIP returns the source location the pool would have captured for
// the entry it is delivering to a Sink on the calling goroutine: the
// nearest frame outside this package above deliver, under the same frame
// budget. A Sink calls it from Record to pull, on demand, the IP of an
// entry whose kind the pool does not capture eagerly (SetIPCapture).
// Record runs synchronously on the mutator's stack, so the frames above
// deliver are exactly the frames the eager capture walks. Called outside a
// Record — or more than maxIPFrames frames above deliver — it returns "".
func DeliveredIP() string {
	var pcs [maxIPFrames]uintptr
	// Skip runtime.Callers and DeliveredIP: pcs[0] is at skip 1 above
	// DeliveredIP, so the frame after pcs[i] is at skip i+2.
	n := runtime.Callers(2, pcs[:])
	for i, pc := range pcs[:n] {
		if resolvePC(pc).deliver {
			return callerIP(i + 2)
		}
	}
	return ""
}

// resolvePC memoizes the frame walk for a single PC, including inlined
// frames (one PC can expand to several).
func resolvePC(pc uintptr) ipCacheEntry {
	if v, ok := ipCache.Load(pc); ok {
		return v.(ipCacheEntry)
	}
	var ent ipCacheEntry
	frames := runtime.CallersFrames([]uintptr{pc})
	for first := true; ; first = false {
		f, more := frames.Next()
		if first {
			ent.deliver = f.Function == deliverFunc
		}
		if f.File == "" {
			ent.loc, ent.done = "", true
			break
		}
		if !strings.Contains(f.File, "internal/pmem/") || strings.HasSuffix(f.File, "_test.go") {
			ent.loc, ent.done = shortFile(f.File)+":"+strconv.Itoa(f.Line), true
			break
		}
		if !more {
			break
		}
	}
	ipCache.Store(pc, ent)
	return ent
}

// deliverFunc is deliver's symbol name as runtime frames report it.
const deliverFunc = "github.com/pmemgo/xfdetector/internal/pmem.deliver"

func shortFile(path string) string {
	// Keep the last two path elements: "pkg/file.go".
	i := strings.LastIndexByte(path, '/')
	if i < 0 {
		return path
	}
	j := strings.LastIndexByte(path[:i], '/')
	if j < 0 {
		return path
	}
	return path[j+1:]
}
