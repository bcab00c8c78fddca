package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/pmcache"
	"github.com/pmemgo/xfdetector/internal/pmobj"
	"github.com/pmemgo/xfdetector/internal/pmredis"
	"github.com/pmemgo/xfdetector/internal/workloads"
)

// sizes fixes how much work one campaign of each workload does.
type sizes struct {
	// insertInit keys are inserted while the image is initialized and
	// insertTest keys under failure injection, per distinct-insert program.
	insertInit, insertTest int
	// update-repeat and fleet-replay: updInit keys initialize the B-Tree,
	// updTest keys are inserted under injection, then the first updKeys
	// init keys are re-stored with identical values for updRounds rounds.
	updInit, updTest, updKeys, updRounds int
}

// fullSizes is the measured configuration. update-repeat's 50 rounds keep
// the fleet's in-memory artifact near 100 MB.
var fullSizes = sizes{insertInit: 10, insertTest: 10, updInit: 20, updTest: 5, updKeys: 10, updRounds: 50}

// knownAnswer is one program's expected verdict: the seeded Table 5 fault
// ("" = the program is correct and its campaign must produce no report at
// all) and the bug class the detector must report for it.
type knownAnswer struct {
	program string
	fault   string
	class   core.BugClass
}

// redisInitRace is the paper's Bug 3 in the mini PM-Redis
// (pmredis.Options.InitRaceBug); it has no entry in the workloads registry.
const redisInitRace = "redis-init-race"

// insertAnswers lists distinct-insert's programs: every Table 4 program,
// each with one fault on its insert path. rbt-skip-add-insert-link is left
// out on purpose: its recovery loops until the MaxPostOps budget, a regime
// that would swamp every other layer.
var insertAnswers = []knownAnswer{
	{"B-Tree", "btree-skip-add-leaf", core.CrossFailureRace},
	{"C-Tree", "ctree-skip-add-link", core.CrossFailureRace},
	{"RB-Tree", "rbt-skip-add-count", core.CrossFailureRace},
	{"Hashmap-TX", "hmtx-skip-add-slot", core.CrossFailureRace},
	{"Hashmap-Atomic", "hma-skip-entry-persist", core.CrossFailureRace},
	{"Redis", redisInitRace, core.CrossFailureRace},
	{"Memcached", "", 0},
}

// updateAnswer is update-repeat's and fleet-replay's program.
var updateAnswer = knownAnswer{"B-Tree", "btree-skip-add-leaf", core.CrossFailureRace}

// checkAnswerTable confirms that the hand-written classes agree with the
// workloads fault registry, so the table cannot drift from the program.
func checkAnswerTable() error {
	registry := map[string]workloads.Fault{}
	for _, f := range workloads.AllFaults() {
		registry[f.Name] = f
	}
	for _, a := range append(append([]knownAnswer(nil), insertAnswers...), updateAnswer) {
		if a.fault == "" || a.fault == redisInitRace {
			continue
		}
		f, ok := registry[a.fault]
		if !ok || f.Workload != a.program || f.Class != a.class {
			return fmt.Errorf("known answer %s/%s (%v) disagrees with the fault registry (%+v)", a.program, a.fault, a.class, f)
		}
	}
	return nil
}

// program is one campaign target together with its known answer.
type program struct {
	answer knownAnswer
	target core.Target
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"distinct-insert", "update-repeat", "fleet-replay"}

// buildPrograms generates the workload's inputs from seed and builds its
// targets. The detector sees only these generated keys.
func buildPrograms(workload string, seed int64, sz sizes) ([]program, error) {
	rng := rand.New(rand.NewSource(seed))
	switch workload {
	case "distinct-insert":
		var progs []program
		for _, a := range insertAnswers {
			keys := seededKeys(rng, sz.insertInit+sz.insertTest+1)
			in := treeInputs{init: keys[:sz.insertInit], test: keys[sz.insertInit : len(keys)-1], resume: keys[len(keys)-1]}
			var t core.Target
			switch a.program {
			case "Redis":
				t = redisTarget(keys[:len(keys)-1])
			case "Memcached":
				t = memcachedTarget(keys[:len(keys)-1])
			default:
				m, ok := workloads.MakerFor(a.program)
				if !ok {
					return nil, fmt.Errorf("no workload %q", a.program)
				}
				t = treeTarget(m, a.fault, in)
			}
			progs = append(progs, program{answer: a, target: t})
		}
		return progs, nil
	case "update-repeat", "fleet-replay":
		m, ok := workloads.MakerFor(updateAnswer.program)
		if !ok {
			return nil, fmt.Errorf("no workload %q", updateAnswer.program)
		}
		keys := seededKeys(rng, sz.updInit+sz.updTest+1)
		// The init keys, then the test keys, go in ascending order: every
		// seed builds the same tree and injects the same failure points,
		// so the workload's time is set by the detector's per-point cost,
		// not by how a seed happens to split the leaves (with random order
		// the post-run count ranged 127–189 across seeds). The seed picks
		// the key values.
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		in := treeInputs{
			init:    keys[:sz.updInit],
			test:    keys[sz.updInit : len(keys)-1],
			resume:  keys[len(keys)-1],
			updates: sz.updKeys,
			rounds:  sz.updRounds,
		}
		return []program{{answer: updateAnswer, target: treeTarget(m, updateAnswer.fault, in)}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
}

// seededKeys draws n distinct non-zero keys.
func seededKeys(rng *rand.Rand, n int) []uint64 {
	seen := make(map[uint64]bool, n)
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		k := rng.Uint64()
		if k == 0 || seen[k] {
			continue
		}
		seen[k] = true
		keys = append(keys, k)
	}
	return keys
}

// value and updated are the values stored for key k on insert and on
// every update round; both are non-zero and differ from each other.
func value(k uint64) uint64   { return k | 1 }
func updated(k uint64) uint64 { return (k | 1) ^ 2 }

// treeInputs are one micro program's generated inputs.
type treeInputs struct {
	init, test []uint64
	resume     uint64 // inserted by every post-run's resumption
	updates    int    // re-store the first updates init keys ...
	rounds     int    // ... this many times, identically each round
}

// treeTarget drives a Table 4 micro program the way §6.1 does: the
// image is initialized with the init keys, the pre-failure stage inserts
// the test keys and runs the update rounds, and every post-run recovers,
// reads, resumes with one insert and verifies the whole structure.
func treeTarget(m workloads.Maker, fault string, in treeInputs) core.Target {
	return core.Target{
		Name: m.Name,
		Setup: func(c *core.Ctx) error {
			st, err := m.Create(c, fault)
			if err != nil {
				return err
			}
			for _, k := range in.init {
				if err := st.Insert(k, value(k)); err != nil {
					return fmt.Errorf("%s: init insert: %w", m.Name, err)
				}
			}
			return nil
		},
		Pre: func(c *core.Ctx) error {
			st, err := m.Open(c, fault)
			if err != nil {
				return err
			}
			for _, k := range in.test {
				if err := st.Insert(k, value(k)); err != nil {
					return fmt.Errorf("%s: insert: %w", m.Name, err)
				}
			}
			for r := 0; r < in.rounds; r++ {
				for _, k := range in.init[:in.updates] {
					if err := st.Insert(k, updated(k)); err != nil {
						return fmt.Errorf("%s: update round %d: %w", m.Name, r, err)
					}
				}
			}
			return nil
		},
		Post: func(c *core.Ctx) error {
			st, err := m.Open(c, fault)
			if errors.Is(err, pmobj.ErrNotAPool) || errors.Is(err, workloads.ErrNotInitialized) {
				return nil // the failure hit before creation committed
			}
			if err != nil {
				return err
			}
			if _, _, err := st.Get(in.init[0]); err != nil {
				return err
			}
			if err := st.Insert(in.resume, value(in.resume)); err != nil {
				return err
			}
			return st.Verify()
		},
	}
}

// redisTarget runs PM-Redis with Bug 3 seeded: the pre-failure stage
// creates the database and SETs every key; each post-run restarts the
// server, queries it, resumes with one SET and verifies the dictionary.
func redisTarget(keys []uint64) core.Target {
	opts := pmredis.Options{InitRaceBug: true}
	return core.Target{
		Name: "Redis",
		Pre: func(c *core.Ctx) error {
			db, err := pmredis.Create(c, opts)
			if err != nil {
				return err
			}
			for _, k := range keys {
				if _, err := db.Do(fmt.Sprintf("SET k%x v%x", k, value(k))); err != nil {
					return err
				}
			}
			return nil
		},
		Post: func(c *core.Ctx) error {
			db, err := pmredis.Open(c, opts)
			if err != nil {
				return nil // creation had not committed; the server starts fresh
			}
			if _, err := db.Do("DBSIZE"); err != nil {
				return err
			}
			if _, err := db.Do("SET resumed yes"); err != nil {
				return err
			}
			return db.Verify()
		},
	}
}

// memcachedTarget runs the correct PM-Memcached the same way.
func memcachedTarget(keys []uint64) core.Target {
	return core.Target{
		Name: "Memcached",
		Pre: func(c *core.Ctx) error {
			m, err := pmcache.Create(c)
			if err != nil {
				return err
			}
			for _, k := range keys {
				if _, err := m.Do(fmt.Sprintf("set k%x v%x", k, value(k))); err != nil {
					return err
				}
			}
			return nil
		},
		Post: func(c *core.Ctx) error {
			m, err := pmcache.Open(c)
			if err != nil {
				return nil // the cache was not created yet
			}
			if _, err := m.Do(fmt.Sprintf("get k%x", keys[0])); err != nil {
				return err
			}
			if _, err := m.Do("set resumed yes"); err != nil {
				return err
			}
			return m.Verify()
		},
	}
}
