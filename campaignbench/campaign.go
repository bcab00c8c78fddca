package main

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"github.com/pmemgo/xfdetector/internal/bench"
	"github.com/pmemgo/xfdetector/internal/ckpt"
	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/record"
)

// fleetShards is the shard count xfdetector -spawn uses by default.
const fleetShards = 3

// detectConfig is every campaign's configuration: full detection on one
// sequential worker over the experiments' in-memory pool.
func detectConfig() core.Config {
	return core.Config{PoolSize: bench.DefaultPoolSize, Mode: core.ModeDetect, Workers: 1}
}

// runResult is one program's share of a campaign.
type runResult struct {
	program program
	// res is the single-process Result, or the fleet's merged Result.
	res *core.Result
	// decided holds every Result that decides failure points (the
	// single-process run, or each replay shard and the merge); the bucket
	// identity must hold for each. A record pass decides none.
	decided []*core.Result
	// Trace entries and the shadow peak over every core.Run, record pass
	// included (the record pass's Result is dropped: it holds the trace).
	preEntries, postEntries int
	shadowPeak              uint64
	err                     error
}

func (r *runResult) count(res *core.Result) {
	r.preEntries += res.PreEntries
	r.postEntries += res.PostEntries
	r.shadowPeak = max(r.shadowPeak, res.ShadowPeakBytes)
}

// fleetStats sums a fleet campaign's record, decode, shard and merge
// costs over its programs.
type fleetStats struct {
	recordS, readS, shardRunS, shardPreS, mergeS float64
	artifactBytes, lines                         int
}

// campaign is one run of a workload's programs, timed from the first
// core.Run to the last verdict.
type campaign struct {
	seconds float64
	runs    []runResult
	fleet   fleetStats
	traceID int // the tracer's campaign id (0 when untraced)
}

// runCampaign runs every program of the workload one after another, as a
// single process or, with fleet set, as a record-once fleet.
func runCampaign(tr *tracer, progs []program, fleet bool) campaign {
	var c campaign
	c.traceID = tr.newCampaign()
	id := tr.begin("campaign", "")
	start := time.Now()
	for _, p := range progs {
		if fleet {
			c.runs = append(c.runs, runFleet(tr, p, &c.fleet))
		} else {
			c.runs = append(c.runs, runSingle(tr, p))
		}
	}
	c.seconds = time.Since(start).Seconds()
	tr.end(id)
	return c
}

func runSingle(tr *tracer, p program) runResult {
	id := tr.begin("core.Run", p.target.Name)
	res, err := core.Run(detectConfig(), tr.wrap(p.target))
	tr.end(id)
	out := runResult{program: p, res: res, err: err}
	if err == nil {
		out.decided = []*core.Result{res}
		out.count(res)
	}
	return out
}

// runFleet runs p the way xfdetector -spawn 3 does by default: record the
// pre-failure pass once, decode the artifact, replay it in three shards
// that share one ClassRegistry, and merge the shards' checkpoint lines.
func runFleet(tr *tracer, p program, st *fleetStats) runResult {
	out := runResult{program: p}
	name := p.target.Name

	var buf bytes.Buffer
	cfg := detectConfig()
	cfg.Record = record.NewWriter(&buf, 1, cfg.PoolSize, 0)
	id := tr.begin("core.Run", "record "+name)
	start := time.Now()
	rec, err := core.Run(cfg, tr.wrap(p.target))
	st.recordS += time.Since(start).Seconds()
	tr.end(id)
	if err != nil {
		out.err = fmt.Errorf("record pass: %w", err)
		return out
	}
	out.count(rec)
	st.artifactBytes += buf.Len()

	id = tr.begin("record.Read", name)
	start = time.Now()
	a, err := record.Read(&buf)
	st.readS += time.Since(start).Seconds()
	tr.end(id)
	if err != nil {
		out.err = fmt.Errorf("decoding the artifact: %w", err)
		return out
	}

	reg := core.NewClassRegistry()
	shardLines := make([][]ckpt.Line, fleetShards)
	for i := range shardLines {
		cfg := detectConfig()
		cfg.ShardCount, cfg.ShardIndex, cfg.Replay = fleetShards, i, a
		cfg.Verdicts = tr.verdicts(reg.Bind("shard-" + strconv.Itoa(i)))
		lines := &shardLines[i]
		cfg.OnPostRunComplete = func(fp int, fpr uint64, fresh []core.Report) {
			*lines = append(*lines, ckpt.Line{FP: fp, FPrint: fpr, Reports: fresh})
		}
		id := tr.begin("core.Run", "shard "+strconv.Itoa(i)+" "+name)
		start := time.Now()
		res, err := core.Run(cfg, tr.wrap(p.target))
		st.shardRunS += time.Since(start).Seconds()
		tr.end(id)
		if err != nil {
			out.err = fmt.Errorf("shard %d: %w", i, err)
			return out
		}
		st.shardPreS += res.PreSeconds
		*lines = append(*lines, ckpt.Summary(res, fleetShards))
		st.lines += len(*lines)
		out.decided = append(out.decided, res)
		out.count(res)
	}

	id = tr.begin("ckpt.merge", name)
	start = time.Now()
	m := ckpt.NewMerger()
	for i, lines := range shardLines {
		if err := m.AddAll(strconv.Itoa(i), lines); err != nil {
			out.err = fmt.Errorf("merge: %w", err)
			break
		}
	}
	merged := m.Result(name)
	st.mergeS += time.Since(start).Seconds()
	tr.end(id)
	if out.err == nil {
		out.res = merged
		out.decided = append(out.decided, merged)
	}
	return out
}

// reference is one program's known single-process outcome: its sorted
// report-key text and failure-point count, taken from the untimed warm-up.
type reference struct {
	keys string
	fps  int
}

// keyText renders a Result's report-key set in the -keys-out format, so
// two sets compare byte for byte.
func keyText(res *core.Result) string {
	return ckpt.KeysFileText(ckpt.SortedKeys(res.Reports))
}

// verify checks every program of c against its known answer and, when
// refs is set, against the warm-up's report-key set. It returns the
// failure points decided, how many of them lack a correct verdict, and a
// description of each miss. A program whose campaign errored or missed
// its known answer fails every one of its points; otherwise only skipped
// (quarantined or cancelled) and abandoned points fail.
func (c campaign) verify(refs []reference) (fps, failed int, problems []string) {
	for i, r := range c.runs {
		a := r.program.answer
		var miss []string
		n := 0
		switch {
		case r.err != nil:
			miss = append(miss, r.err.Error())
			if refs != nil {
				n = refs[i].fps
			}
		default:
			n = r.res.FailurePoints
			for _, d := range r.decided {
				if got := d.BucketedFailurePoints(); got != d.FailurePoints {
					miss = append(miss, fmt.Sprintf("bucket identity: %d bucketed, %d failure points", got, d.FailurePoints))
				}
			}
			switch {
			case a.fault == "" && len(r.res.Reports) != 0:
				miss = append(miss, fmt.Sprintf("correct program reported %d bugs", len(r.res.Reports)))
			case a.fault != "" && r.res.Count(a.class) == 0:
				miss = append(miss, fmt.Sprintf("seeded %s not reported as %v", a.fault, a.class))
			}
			if refs != nil && keyText(r.res) != refs[i].keys {
				miss = append(miss, "report-key set differs from the single-process campaign")
			}
		}
		fps += n
		if len(miss) > 0 {
			failed += n
			for _, m := range miss {
				problems = append(problems, a.program+": "+m)
			}
			continue
		}
		failed += r.res.SkippedFailurePoints + r.res.AbandonedPostRuns
	}
	return fps, failed, problems
}
