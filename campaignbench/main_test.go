package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/pmemgo/xfdetector/internal/core"
)

// smallSizes shrinks every workload so the self-test runs in seconds.
var smallSizes = sizes{insertInit: 2, insertTest: 3, updInit: 4, updTest: 2, updKeys: 2, updRounds: 3}

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

var checksLine = regexp.MustCompile(`(?m)^known-answer checks: (\d+) program verdicts over (\d+) failure points, 0 failed$`)

// TestReducedPass runs every workload of BENCHMARK.json at reduced size,
// untraced and traced, as the benchmark command does, and checks that the
// last line prints every metric BENCHMARK.json names with its unit and
// that the known-answer checks ran and passed.
func TestReducedPass(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Fatalf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloadNames[i])
		}
		for traced, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "7", "--seconds", "0.01", "--trace", strconv.Itoa(traced),
				"--spans-dir", t.TempDir()}
			if code := run(args, time.Now(), smallSizes, &stdout, &stderr); code != 0 {
				t.Fatalf("%v: exit %d\n%s%s", args, code, stdout.String(), stderr.String())
			}
			out := stdout.String()
			lines := strings.Split(strings.TrimSpace(out), "\n")
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%v: last line is not JSON: %v", args, err)
			}
			var correct bool
			var attempted, failed int
			var metrics map[string]metric
			for key, dst := range map[string]any{"correct": &correct, "attempted": &attempted, "failed": &failed, "metrics": &metrics} {
				if err := json.Unmarshal(res[key], dst); err != nil {
					t.Fatalf("%v: key %q: %v", args, key, err)
				}
			}
			if len(res) != 4 || !correct || attempted < 1 || failed != 0 {
				t.Errorf("%v: result %s", args, lines[len(lines)-1])
			}
			if len(metrics) != len(want) {
				t.Errorf("%v: %d metrics printed, BENCHMARK.json names %d", args, len(metrics), len(want))
			}
			for _, m := range want {
				if got, ok := metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%v: metric %s: got %+v (printed: %v), want unit %q", args, m.Name, got, ok, m.Unit)
				}
			}
			match := checksLine.FindStringSubmatch(out)
			if match == nil {
				t.Fatalf("%v: no passing known-answer summary in output:\n%s", args, out)
			}
			if n, _ := strconv.Atoi(match[1]); n < len(workloadNames) {
				t.Errorf("%v: only %d program verdicts checked", args, n)
			}
		}
	}
}

// TestKnownAnswerMisses checks that verify fails a campaign whose
// verdicts miss the known answer or the reference key set, counting every
// failure point of the missed program as failed.
func TestKnownAnswerMisses(t *testing.T) {
	progs, err := buildPrograms("distinct-insert", 3, smallSizes)
	if err != nil {
		t.Fatal(err)
	}
	c := runCampaign(nil, progs, false)
	if _, failed, problems := c.verify(nil); failed != 0 || len(problems) != 0 {
		t.Fatalf("reference campaign failed its known answers: %v", problems)
	}
	refs := make([]reference, len(c.runs))
	for i, r := range c.runs {
		refs[i] = reference{keys: keyText(r.res), fps: r.res.FailurePoints}
	}

	last := len(c.runs) - 1
	wrongClass := c
	wrongClass.runs = append([]runResult(nil), c.runs...)
	wrongClass.runs[last].program.answer = knownAnswer{"Memcached", "pretend-fault", core.CrossFailureRace}
	if _, failed, problems := wrongClass.verify(refs); failed != refs[last].fps || len(problems) != 1 {
		t.Errorf("expected class absent: failed %d (want %d), problems %v", failed, refs[last].fps, problems)
	}

	wrongKeys := append([]reference(nil), refs...)
	wrongKeys[0].keys += "extra-key\n"
	if _, failed, problems := c.verify(wrongKeys); failed != refs[0].fps || len(problems) != 1 {
		t.Errorf("key set differs: failed %d (want %d), problems %v", failed, refs[0].fps, problems)
	}
}

// TestUsageErrors checks that a bad command line exits 2 without a result.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload", "--seconds", "0.01"},
		{"--workload", "update-repeat", "--trace", "2"},
		{"--workload", "update-repeat", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, time.Now(), smallSizes, &stdout, &stderr); code != 2 || strings.Contains(stdout.String(), `"correct"`) {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
