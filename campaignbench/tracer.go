package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"github.com/pmemgo/xfdetector/internal/core"
)

// span is one traced interval, recorded at a layer boundary from the
// benchmark's side. Spans of one campaign share Campaign; Parent is the
// enclosing span's ID (-1 at the top).
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Campaign int     `json:"campaign"`
	Name     string  `json:"name"`
	Label    string  `json:"label,omitempty"`
	Start    float64 `json:"start_s"`
	End      float64 `json:"end_s"`
}

func (s span) seconds() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced campaigns run the same code with no wrappers.
// Campaigns run on one goroutine (Workers=1, no post-run timeout), so the
// callbacks nest strictly and a stack of open spans gives each its parent.
type tracer struct {
	epoch    time.Time
	spans    []span
	open     []int
	campaign int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newCampaign starts a new campaign id for the spans that follow and
// returns it (0 when untraced).
func (t *tracer) newCampaign() int {
	if t == nil {
		return 0
	}
	t.campaign++
	return t.campaign
}

func (t *tracer) begin(name, label string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Campaign: t.campaign, Name: name, Label: label,
		Start: time.Since(t.epoch).Seconds()})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.epoch).Seconds()
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = t.open[:i]
			break
		}
	}
}

// wrap times the target's Setup, Pre and Post callbacks. Post-runs of a
// sequential live campaign run inside Pre's fence hook, so their spans
// nest under Pre's.
func (t *tracer) wrap(tg core.Target) core.Target {
	if t == nil {
		return tg
	}
	tg.Setup = t.stage("setup", tg.Name, tg.Setup)
	tg.Pre = t.stage("pre", tg.Name, tg.Pre)
	tg.Post = t.stage("post", tg.Name, tg.Post)
	return tg
}

func (t *tracer) stage(name, label string, fn func(*core.Ctx) error) func(*core.Ctx) error {
	if fn == nil {
		return nil
	}
	return func(c *core.Ctx) error {
		id := t.begin(name, label)
		// Deferred: a post-run over its MaxPostOps budget unwinds by panic.
		defer t.end(id)
		return fn(c)
	}
}

// verdicts times a VerdictSource's claims and resolutions.
func (t *tracer) verdicts(v core.VerdictSource) core.VerdictSource {
	if t == nil {
		return v
	}
	return timedVerdicts{inner: v, t: t}
}

type timedVerdicts struct {
	inner core.VerdictSource
	t     *tracer
}

func (v timedVerdicts) Claim(fingerprint uint64) core.ClassClaim {
	id := v.t.begin("claim", "")
	defer v.t.end(id)
	return v.inner.Claim(fingerprint)
}

func (v timedVerdicts) Resolve(fingerprint uint64, clean bool, fresh []core.Report) {
	id := v.t.begin("resolve", "")
	defer v.t.end(id)
	v.inner.Resolve(fingerprint, clean, fresh)
}

// campaignSpans returns the spans of one campaign id.
func (t *tracer) campaignSpans(id int) []span {
	var out []span
	for _, s := range t.spans {
		if s.Campaign == id {
			out = append(out, s)
		}
	}
	return out
}

// selfSeconds sums, per span name, each span's duration minus the time
// its children cover.
func selfSeconds(spans []span) map[string]float64 {
	byID := make(map[int]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.seconds()
		if p, ok := byID[s.Parent]; ok {
			self[p] -= s.seconds()
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		out[s.Name] += self[i]
	}
	return out
}

// printSelfTimes writes the self-time breakdown of one campaign's spans.
func printSelfTimes(w io.Writer, title string, spans []span) {
	self := selfSeconds(spans)
	names := make([]string, 0, len(self))
	total := 0.0
	for n, s := range self {
		names = append(names, n)
		total += s
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "self time by span, %s (%.4f s traced):\n", title, total)
	for _, n := range names {
		fmt.Fprintf(w, "  %-22s %10.4f s  %5.1f%%\n", n, self[n], 100*self[n]/total)
	}
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
