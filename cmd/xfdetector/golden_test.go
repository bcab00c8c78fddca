package main

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/pmemgo/xfdetector/internal/workloads"
)

// goldenDir holds one -keys-out file per campaign: every -list patch plus
// one clean run per program, at -init 5 -test 5. The files pin the report
// keys — ReaderIP/WriterIP strings included — across changes to how source
// locations are captured; the equivalence tables elsewhere only compare
// configurations within one build. Regenerate a file only for a deliberate
// change to a workload's code or to the report format:
//
//	xfdetector -workload W -init 5 -test 5 [-patch P] -keys-out testdata/golden/W.P.keys
//
// with P = "clean" in the file name for the correct program.
const goldenDir = "testdata/golden"

// goldenCampaigns enumerates the -workload/-patch pairs the corpus covers.
func goldenCampaigns() [][2]string {
	var out [][2]string
	for flagName, name := range shortNames {
		for _, fl := range workloads.FaultsFor(name) {
			out = append(out, [2]string{flagName, fl.Name})
		}
	}
	out = append(out, [2]string{"redis", "init-race"})
	for _, w := range []string{"btree", "ctree", "rbtree", "hashmap-tx", "hashmap-atomic", "redis", "memcached"} {
		out = append(out, [2]string{w, "clean"})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0]+"."+out[i][1] < out[j][0]+"."+out[j][1] })
	return out
}

// TestGoldenReportKeys runs every corpus campaign sequentially and with two
// workers and requires the -keys-out bytes to equal the committed file.
func TestGoldenReportKeys(t *testing.T) {
	campaigns := goldenCampaigns()
	files, err := filepath.Glob(filepath.Join(goldenDir, "*.keys"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(campaigns) {
		t.Fatalf("%s holds %d key files, want one per campaign (%d)", goldenDir, len(files), len(campaigns))
	}
	if testing.Short() {
		campaigns = campaigns[:1]
	}
	for _, c := range campaigns {
		workload, patch := c[0], c[1]
		t.Run(workload+"/"+patch, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join(goldenDir, workload+"."+patch+".keys"))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []string{"1", "2"} {
				keys := filepath.Join(t.TempDir(), "keys.txt")
				args := []string{"-workload", workload, "-init", "5", "-test", "5", "-workers", workers, "-keys-out", keys}
				if patch != "clean" {
					args = append(args, "-patch", patch)
				}
				if code, out := runCLI(t, args...); code != 0 && code != 1 {
					t.Fatalf("workers %s: exit %d\n%s", workers, code, out)
				}
				got, err := os.ReadFile(keys)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Errorf("workers %s: report keys differ from the golden file\ngot:\n%s\nwant:\n%s",
						workers, got, want)
				}
			}
		})
	}
}
