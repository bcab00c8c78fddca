package main

import (
	"sort"
	"strings"
	"time"

	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/shadow"
	"github.com/pmemgo/xfdetector/internal/trace"
)

// campaignLayers derives the per-layer metrics one traced campaign
// yields: the work counts from its Results and the layer times from its
// spans and from the fleet's timed calls into record, core and ckpt.
func campaignLayers(tr *tracer, c campaign) map[string]float64 {
	var fps, postRuns, classes, reused, preEntries, postEntries int
	var peak uint64
	for _, r := range c.runs {
		preEntries += r.preEntries
		postEntries += r.postEntries
		peak = max(peak, r.shadowPeak)
		if r.res == nil {
			continue
		}
		fps += r.res.FailurePoints
		postRuns += r.res.PostRuns
		classes += r.res.CrashStateClasses
		reused += r.res.PrunedFailurePoints + r.res.CrossShardPrunedFailurePoints + r.res.CacheHitFailurePoints
	}

	spans := tr.campaignSpans(c.traceID)
	names := make(map[int]string, len(spans))
	for _, s := range spans {
		names[s.ID] = s.Name
	}
	var preSelf, claimS, resolveS float64
	var post []float64
	var claims, resolves int
	for _, s := range spans {
		switch s.Name {
		case "pre":
			preSelf += s.seconds()
		case "post":
			post = append(post, s.seconds())
			if names[s.Parent] == "pre" {
				preSelf -= s.seconds()
			}
		case "claim":
			claims++
			claimS += s.seconds()
		case "resolve":
			resolves++
			resolveS += s.seconds()
		}
	}
	sort.Float64s(post)

	f := c.fleet
	return map[string]float64{
		"trace.pre_entries":        float64(preEntries),
		"trace.post_entries":       float64(postEntries),
		"shadow.peak_kb":           float64(peak) / 1024,
		"core.failure_points":      float64(fps),
		"core.post_runs":           float64(postRuns),
		"core.crash_state_classes": float64(classes),
		"core.reuse_share":         ratio(float64(reused), float64(fps)),
		"core.pre_self_s":          preSelf,
		"core.post_run_s":          sum(post),
		"core.post_run_spans":      float64(len(post)),
		"core.post_run_p50_ms":     1e3 * quantile(post, 0.5),
		"core.post_run_p90_ms":     1e3 * quantile(post, 0.9),
		"core.verdict_claims":      float64(claims),
		"core.verdict_claim_us":    1e6 * ratio(claimS, float64(claims)),
		"core.verdict_resolve_us":  1e6 * ratio(resolveS, float64(resolves)),
		"record.record_s":          f.recordS,
		"record.artifact_mb":       float64(f.artifactBytes) / (1 << 20),
		"record.read_s":            f.readS,
		"record.shard_replay_s":    f.shardRunS,
		"record.shard_pre_s":       f.shardPreS,
		"ckpt.lines":               float64(f.lines),
		"ckpt.merge_s":             f.mergeS,
	}
}

// fleetLayer reports whether a per-layer metric belongs to the fleet
// path (record, the shared registry's claims, ckpt).
func fleetLayer(name string) bool {
	return strings.HasPrefix(name, "record.") || strings.HasPrefix(name, "ckpt.") ||
		strings.HasPrefix(name, "core.verdict_")
}

// isolatedLayers runs each program alone in the configurations that
// isolate one layer, reps times, and returns each metric's median:
//   - workloads.program_s: ModeOriginal, the program with no tracing;
//   - pmem.trace_only_s: ModeTraceOnly, Fig. 12b's "Pin-only";
//   - pmem.ip_capture_s: ModeTraceOnly minus the same with DisableIPCapture;
//   - trace.*, shadow.*: the pre-failure pass alone (no Post, so nothing
//     is dispatched) keeps its trace, which is encoded with trace.WriteTo
//     and replayed through a fresh shadow.PM, fingerprinting the crash
//     state at every failure-point marker.
func isolatedLayers(tr *tracer, progs []program, reps int) (map[string]float64, error) {
	samples := map[string][]float64{}
	for rep := 0; rep < reps; rep++ {
		sums := map[string]float64{}
		for _, p := range progs {
			run := func(name string, cfg core.Config, t core.Target) (*core.Result, error) {
				id := tr.begin(name, p.target.Name)
				start := time.Now()
				res, err := core.Run(cfg, t)
				sums[name] += time.Since(start).Seconds()
				tr.end(id)
				return res, err
			}
			cfg := detectConfig()
			cfg.Mode = core.ModeOriginal
			if _, err := run("workloads.program_s", cfg, p.target); err != nil {
				return nil, err
			}
			cfg.Mode = core.ModeTraceOnly
			if _, err := run("pmem.trace_only_s", cfg, p.target); err != nil {
				return nil, err
			}
			cfg.DisableIPCapture = true
			if _, err := run("trace_only_noip_s", cfg, p.target); err != nil {
				return nil, err
			}

			cfg = detectConfig()
			cfg.KeepTrace = true
			preOnly := p.target
			preOnly.Post = nil
			res, err := run("pre_only_s", cfg, preOnly)
			if err != nil {
				return nil, err
			}
			kept := res.PreTrace()

			id := tr.begin("trace.encode", p.target.Name)
			start := time.Now()
			var n countingWriter
			if _, err := kept.WriteTo(&n); err != nil {
				return nil, err
			}
			sums["trace.encode_s"] += time.Since(start).Seconds()
			sums["trace.encoded_mb"] += float64(n) / (1 << 20)
			tr.end(id)

			id = tr.begin("shadow.replay", p.target.Name)
			apply, fingerprint, calls := replayShadow(kept, cfg.PoolSize)
			tr.end(id)
			sums["shadow.apply_s"] += apply
			sums["shadow.fingerprint_s"] += fingerprint
			sums["fingerprint_calls"] += float64(calls)
		}
		sums["pmem.ip_capture_s"] = sums["pmem.trace_only_s"] - sums["trace_only_noip_s"]
		sums["shadow.fingerprint_us"] = 1e6 * ratio(sums["shadow.fingerprint_s"], sums["fingerprint_calls"])
		for k, v := range sums {
			samples[k] = append(samples[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range samples {
		sort.Float64s(v)
		out[k] = quantile(v, 0.5)
	}
	return out, nil
}

// replayShadow applies a kept pre-failure trace to a fresh shadow PM the
// way the detector's sink does, computing the crash-state fingerprint at
// each failure-point marker. It returns the apply time, the fingerprint
// time and the number of fingerprints.
func replayShadow(t *trace.Trace, poolSize uint64) (apply, fingerprint float64, calls int) {
	sh := shadow.NewPM(poolSize)
	start := time.Now()
	for _, e := range t.Entries() {
		sh.Apply(e)
		if e.Kind == trace.FailurePoint {
			fpStart := time.Now()
			sh.CrashFingerprint()
			fingerprint += time.Since(fpStart).Seconds()
			calls++
		}
	}
	return time.Since(start).Seconds() - fingerprint, fingerprint, calls
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter int64

func (w *countingWriter) Write(p []byte) (int, error) {
	*w += countingWriter(len(p))
	return len(p), nil
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of sorted v by linear interpolation
// (0 for an empty slice).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	pos := q * float64(len(v)-1)
	i := int(pos)
	if i+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[i] + (pos-float64(i))*(v[i+1]-v[i])
}
