// Command campaignbench is the repository's benchmark: it runs one
// detection-campaign workload for a fixed time, checks every verdict
// against a known answer, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as the last line of its output, one
// JSON object. See README.md for the workloads and the metrics.
//
//	campaignbench --workload update-repeat --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricSpec names one printed metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd and perLayer are the metrics of BENCHMARK.json, in its order.
// fp_verified_share is 1 − the failed share of failure points.
var endToEnd = []metricSpec{
	{"campaign_s", "s"},
	{"fp_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
	{"fp_verified_share", "ratio"},
	{"setup_s", "s"},
}

var perLayer = []metricSpec{
	{"tracing.untraced_campaign_s", "s"},
	{"tracing.traced_campaign_s", "s"},
	{"workloads.program_s", "s"},
	{"pmem.trace_only_s", "s"},
	{"pmem.ip_capture_s", "s"},
	{"trace.pre_entries", "count"},
	{"trace.post_entries", "count"},
	{"trace.encode_s", "s"},
	{"trace.encoded_mb", "MiB"},
	{"shadow.apply_s", "s"},
	{"shadow.fingerprint_s", "s"},
	{"shadow.fingerprint_us", "us"},
	{"shadow.peak_kb", "KiB"},
	{"core.failure_points", "count"},
	{"core.post_runs", "count"},
	{"core.crash_state_classes", "count"},
	{"core.reuse_share", "ratio"},
	{"core.pre_self_s", "s"},
	{"core.fp_overhead_us", "us"},
	{"core.post_run_s", "s"},
	{"core.post_run_spans", "count"},
	{"core.post_run_p50_ms", "ms"},
	{"core.post_run_p90_ms", "ms"},
	{"core.verdict_claims", "count"},
	{"core.verdict_claim_us", "us"},
	{"core.verdict_resolve_us", "us"},
	{"record.record_s", "s"},
	{"record.artifact_mb", "MiB"},
	{"record.read_s", "s"},
	{"record.shard_replay_s", "s"},
	{"record.shard_pre_s", "s"},
	{"ckpt.lines", "count"},
	{"ckpt.merge_s", "s"},
}

// options is one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansDir string // where the traced run writes its spans ("" = nowhere)
	sizes    sizes
}

const (
	// minCampaigns is the fewest timed campaigns a measuring phase runs,
	// whatever its time budget.
	minCampaigns = 3
	// setups is the number of set-ups per run; setup_s is their median.
	setups = 3
	// isoReps is the number of repetitions of each isolated layer run.
	isoReps = 3
)

func main() {
	start := time.Now()
	os.Exit(run(os.Args[1:], start, fullSizes, os.Stdout, os.Stderr))
}

// run parses the command line, runs the benchmark and prints its result.
// It returns 0 on success, 1 when a verdict check failed and 2 on a usage
// or harness error.
func run(args []string, start time.Time, sz sizes, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaignbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's keys are drawn from")
	seconds := fs.Float64("seconds", 10, "how long each measuring phase runs")
	traced := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	spansDir := fs.String("spans-dir", "", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "campaignbench: want --workload W --seed N --seconds S --trace 0|1")
		return 2
	}
	o := options{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *traced == 1,
		spansDir: *spansDir, sizes: sz,
	}
	out, err := benchmark(o, start, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 2
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally accumulates the verdict checks of every campaign a run makes.
type tally struct {
	attempted, failed, checked int
	problems                   []string
}

func (t *tally) add(c campaign, refs []reference) {
	fps, failed, problems := c.verify(refs)
	t.attempted += fps
	t.failed += failed
	t.checked += len(c.runs)
	t.problems = append(t.problems, problems...)
}

// benchmark sets the workload up, measures it and returns the result.
func benchmark(o options, start time.Time, w io.Writer) (result, error) {
	if err := checkAnswerTable(); err != nil {
		return result{}, err
	}
	fleet := o.workload == "fleet-replay"
	var tl tally

	// Set-up: generate the inputs, build the targets and run one untimed
	// single-process campaign, which fills the process-wide PC→file:line
	// cache and yields the reference report-key sets. Repeated; setup_s
	// is the median (the first also pays process start).
	var progs []program
	var refs []reference
	var setupS []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = start
		}
		var err error
		if progs, err = buildPrograms(o.workload, o.seed, o.sizes); err != nil {
			return result{}, err
		}
		warm := runCampaign(nil, progs, false)
		tl.add(warm, nil)
		refs = refs[:0]
		for _, r := range warm.runs {
			if r.res == nil {
				return result{}, fmt.Errorf("warm-up campaign of %s failed: %v", r.program.answer.program, r.err)
			}
			refs = append(refs, reference{keys: keyText(r.res), fps: r.res.FailurePoints})
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	fpsPerCampaign := 0
	for _, r := range refs {
		fpsPerCampaign += r.fps
	}

	measure := func(tr *tracer, budget float64, each func(campaign)) []float64 {
		var secs []float64
		t0 := time.Now()
		for len(secs) < minCampaigns || time.Since(t0).Seconds() < budget {
			runtime.GC() // start every campaign from a collected heap
			c := runCampaign(tr, progs, fleet)
			tl.add(c, refs)
			secs = append(secs, c.seconds)
			if each != nil {
				each(c)
			}
		}
		return secs
	}

	out := result{Metrics: map[string]metric{}}
	fmt.Fprintf(w, "workload %s, seed %d, %d failure points per campaign\n", o.workload, o.seed, fpsPerCampaign)
	if !o.trace {
		secs := measure(nil, o.seconds, nil)
		med := median(secs)
		fmt.Fprintf(w, "campaign_s: %s\n", describe(secs))
		fmt.Fprintf(w, "setup_s: %s\n", describe(setupS))
		peak, err := peakRSSMiB()
		if err != nil {
			return result{}, err
		}
		values := map[string]float64{
			"campaign_s":        med,
			"fp_per_s":          float64(fpsPerCampaign) / med,
			"peak_rss_mb":       peak,
			"fp_verified_share": 1 - ratio(float64(tl.failed), float64(tl.attempted)),
			"setup_s":           median(setupS),
		}
		for _, m := range endToEnd {
			out.Metrics[m.name] = metric{values[m.name], m.unit}
		}
	} else {
		values, err := tracedRun(o, progs, refs, &tl, measure, w)
		if err != nil {
			return result{}, err
		}
		for _, m := range perLayer {
			out.Metrics[m.name] = metric{values[m.name], m.unit}
		}
	}

	fmt.Fprintf(w, "known-answer checks: %d program verdicts over %d failure points, %d failed\n",
		tl.checked, tl.attempted, tl.failed)
	for _, p := range tl.problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
	out.Attempted, out.Failed = tl.attempted, tl.failed
	out.Correct = tl.failed == 0 && len(tl.problems) == 0 && tl.attempted > 0
	return out, nil
}

// tracedRun measures the workload untraced and traced for half the time
// each, then runs the isolated layer configurations, and returns the
// per-layer metrics. On distinct-insert and update-repeat it also runs
// the same programs once as a record-once fleet, so the record, verdict
// and ckpt layers are measured on every workload.
func tracedRun(o options, progs []program, refs []reference, tl *tally,
	measure func(*tracer, float64, func(campaign)) []float64, w io.Writer) (map[string]float64, error) {
	untraced := measure(nil, o.seconds/2, nil)

	tr := newTracer()
	var layers []map[string]float64
	var last campaign
	traced := measure(tr, o.seconds/2, func(c campaign) {
		layers = append(layers, campaignLayers(tr, c))
		last = c
	})
	values := map[string]float64{}
	for name := range layers[0] {
		v := make([]float64, len(layers))
		for i, l := range layers {
			v[i] = l[name]
		}
		values[name] = median(v)
	}
	printSelfTimes(w, "last traced campaign", tr.campaignSpans(last.traceID))

	if o.workload != "fleet-replay" {
		runtime.GC()
		probe := runCampaign(tr, progs, true)
		tl.add(probe, refs)
		for name, v := range campaignLayers(tr, probe) {
			if fleetLayer(name) {
				values[name] = v
			}
		}
		printSelfTimes(w, "record-once fleet of the same programs", tr.campaignSpans(probe.traceID))
	}

	tr.newCampaign()
	iso, err := isolatedLayers(tr, progs, isoReps)
	if err != nil {
		return nil, err
	}
	for _, m := range perLayer {
		if v, ok := iso[m.name]; ok {
			values[m.name] = v
		}
	}
	values["core.fp_overhead_us"] = 1e6 * ratio(values["core.pre_self_s"]-values["pmem.trace_only_s"], values["core.failure_points"])
	values["tracing.untraced_campaign_s"] = median(untraced)
	values["tracing.traced_campaign_s"] = median(traced)
	fmt.Fprintf(w, "tracing overhead: traced campaign_s %.4f s (n=%d) vs untraced %.4f s (n=%d), %+.1f%%\n",
		median(traced), len(traced), median(untraced), len(untraced),
		100*(median(traced)/median(untraced)-1))

	if o.spansDir != "" {
		path := filepath.Join(o.spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := tr.writeSpans(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "spans: %d written to %s\n", len(tr.spans), path)
	}
	return values, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// describe reports a timing's median and the highest percentile with at
// least ten samples beyond it, with the sample count.
func describe(v []float64) string {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	out := fmt.Sprintf("median %.4f s", quantile(s, 0.5))
	if k := len(s) - 10; k > len(s)/2 {
		out += fmt.Sprintf(", p%d %.4f s", 100*k/len(s), s[k-1])
	}
	return out + fmt.Sprintf(", n=%d", len(s))
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}
