package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"github.com/pmemgo/xfdetector/internal/ckpt"
	"github.com/pmemgo/xfdetector/internal/serve"
)

// Orchestrator mode: -spawn N forks N shard subprocesses of this binary
// (-shards N -shard-index i), each with its own checkpoint
// (<base>.shard<i>), streams their progress lines to stderr prefixed with
// the shard index, re-spawns a crashed shard with -resume so its checkpoint
// picks up where it died, and finally merges the shard checkpoints into the
// single campaign report. A shard that exits 3 (Incomplete: cancelled or
// quarantined) is final — the same states a single process would report —
// and surfaces through the merged union's coverage check instead of being
// respawned forever.

// shardArgsEnv carries the shard's argument vector, JSON-encoded, to the
// child process. The child's real argv carries the same flags (so ps and
// pkill can see them), but the environment copy is authoritative: when the
// orchestrator is a re-exec'd test binary, argv must not reach the testing
// package's flag parser. The -worker loop spawns shards with the same
// convention, so the constant lives in internal/serve.
const shardArgsEnv = serve.ShardArgsEnv

// spawnTestKillEnv names a shard index whose first incarnation the
// orchestrator SIGKILLs once that shard has durably checkpointed at least
// two failure points. Test hook only: it exercises the crash-respawn path
// deterministically (the CI sharding smoke, TestShardedCampaignEquivalence
// and TestSpawnRespawnsKilledShard set it); the respawned incarnation is
// never re-killed.
const spawnTestKillEnv = "XFDETECTOR_SPAWN_TEST_KILL"

// maxShardAttempts bounds the respawn chain per shard: the initial spawn
// plus three crash recoveries.
const maxShardAttempts = 4

type spawnConfig struct {
	shards   int
	baseArgs []string // workload/engine flags shared by every shard
	ckptBase string
	// workdir, when set, is the campaign directory: shard checkpoints and
	// pool files are laid out under it as shard<i>.ckpt / shard<i>.pool.
	workdir string
	// poolFile requests file-backed shard pools (-pool-file on each shard,
	// pointing at its own file under workdir).
	poolFile bool
	// vcache, when set, gives every shard a cross-campaign verdict cache.
	// Each shard gets its own file (shard<i>.vcache under workdir, else
	// <path>.shard<i>), so concurrent processes never contend on one file.
	// Shards split on failure-point id (fp % shards), not on fingerprint,
	// so one crash-state class can span shards; -spawn has no cross-shard
	// registry, so each such shard post-runs and caches its own
	// representative. A warm fleet therefore gets every cached verdict
	// back only at the same shard count, where each shard owns the same
	// failure points as before.
	vcache  string
	resume  bool
	keysOut string
	// killGrace is the SIGTERM→SIGKILL escalation window for shards that
	// ignore the cancellation request (-kill-grace).
	killGrace time.Duration
	// fromRecord, when set, hands every shard the user's recorded artifact
	// (-from-record) to replay; otherwise every shard executes the
	// pre-failure stage live.
	fromRecord string
}

func shardCkptPath(base string, idx int) string {
	return fmt.Sprintf("%s.shard%d", base, idx)
}

// shardCkpt places shard checkpoints under the campaign workdir when one is
// configured, falling back to the legacy <base>.shard<i> layout.
func (sc spawnConfig) shardCkpt(idx int) string {
	if sc.workdir != "" {
		return filepath.Join(sc.workdir, fmt.Sprintf("shard%d.ckpt", idx))
	}
	return shardCkptPath(sc.ckptBase, idx)
}

// shardPool is shard idx's private pool file. Pool files are never shared:
// pmem's advisory lock turns an accidental collision into a clear error
// instead of two shards corrupting one image.
func (sc spawnConfig) shardPool(idx int) string {
	return filepath.Join(sc.workdir, fmt.Sprintf("shard%d.pool", idx))
}

// shardVCache is shard idx's private verdict-cache file.
func (sc spawnConfig) shardVCache(idx int) string {
	if sc.workdir != "" {
		return filepath.Join(sc.workdir, fmt.Sprintf("shard%d.vcache", idx))
	}
	return fmt.Sprintf("%s.shard%d", sc.vcache, idx)
}

// runSpawn supervises the shard fleet and merges its checkpoints.
func runSpawn(sc spawnConfig) int {
	if sc.workdir != "" {
		if err := os.MkdirAll(sc.workdir, 0o755); err != nil {
			return errorf("creating -workdir: %v", err)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	codes := make([]int, sc.shards)
	var wg sync.WaitGroup
	for i := 0; i < sc.shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = superviseShard(ctx, sc, i)
		}(i)
	}
	wg.Wait()

	paths := make([]string, sc.shards)
	for i := range paths {
		paths[i] = sc.shardCkpt(i)
	}
	for i, code := range codes {
		if code == 2 {
			return errorf("shard %d/%d failed with a usage or harness error; not merging", i, sc.shards)
		}
	}
	// Merge leniently: a shard that crashed before creating its checkpoint
	// leaves a hole the coverage check reports as Incomplete (exit 3).
	res, err := mergeCheckpoints(paths, false)
	if err != nil {
		return errorf("merging shard checkpoints: %v", err)
	}
	fmt.Print(res)
	if sc.keysOut != "" {
		if err := writeKeys(sc.keysOut, res.Reports); err != nil {
			return errorf("writing keys: %v", err)
		}
	}
	switch {
	case res.Incomplete:
		return 3
	case !res.Clean():
		return 1
	}
	return 0
}

// superviseShard runs one shard to a final exit code, re-spawning with
// -resume after a crash (death by signal). Exit codes 0/1/3 are final shard
// outcomes; 2 aborts (a config error will fail every incarnation alike).
func superviseShard(ctx context.Context, sc spawnConfig, idx int) int {
	ckpt := sc.shardCkpt(idx)
	for attempt := 1; ; attempt++ {
		resume := sc.resume || attempt > 1
		code, err := runShardOnce(ctx, sc, idx, ckpt, resume, attempt == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "[orchestrator] shard %d/%d: %v\n", idx, sc.shards, err)
			return 2
		}
		switch code {
		case 0, 1, 3:
			fmt.Fprintf(os.Stderr, "[orchestrator] shard %d/%d exited %d\n", idx, sc.shards, code)
			return code
		case 2:
			fmt.Fprintf(os.Stderr, "[orchestrator] shard %d/%d exited 2 (usage or harness error)\n", idx, sc.shards)
			return 2
		}
		if ctx.Err() != nil || attempt >= maxShardAttempts {
			fmt.Fprintf(os.Stderr, "[orchestrator] shard %d/%d died (exit %d); giving up after %d attempt(s)\n",
				idx, sc.shards, code, attempt)
			return 3
		}
		fmt.Fprintf(os.Stderr, "[orchestrator] shard %d/%d died (exit %d); re-spawning with -resume (attempt %d/%d)\n",
			idx, sc.shards, code, attempt+1, maxShardAttempts)
	}
}

// runShardOnce spawns one incarnation of a shard and waits for it,
// forwarding its output to stderr line by line with a shard prefix. The
// returned code is the process exit status (-1 = killed by a signal);
// the error is reserved for spawn-infrastructure failures.
func runShardOnce(ctx context.Context, sc spawnConfig, idx int, ckpt string, resume, firstIncarnation bool) (int, error) {
	args := append(append([]string{}, sc.baseArgs...),
		"-shards", strconv.Itoa(sc.shards),
		"-shard-index", strconv.Itoa(idx),
		"-checkpoint", ckpt)
	if sc.poolFile {
		args = append(args, "-pool-file", sc.shardPool(idx))
	}
	if sc.vcache != "" {
		args = append(args, "-verdict-cache", sc.shardVCache(idx))
	}
	if resume {
		// -resume covers both the checkpoint and, for file-backed shards,
		// the surviving pool file: a respawned incarnation reopens it and
		// compare-skips the pages its predecessor already persisted.
		args = append(args, "-resume")
	}
	if sc.fromRecord != "" {
		args = append(args, "-from-record", sc.fromRecord)
	}
	encoded, err := json.Marshal(args)
	if err != nil {
		return 0, err
	}
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}

	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), shardArgsEnv+"="+string(encoded))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return 0, err
	}
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	fmt.Fprintf(os.Stderr, "[orchestrator] spawned shard %d/%d (pid %d)%s\n",
		idx, sc.shards, cmd.Process.Pid, map[bool]string{true: " with -resume", false: ""}[resume])

	var fwd sync.WaitGroup
	for _, pipe := range []io.Reader{stdout, stderr} {
		fwd.Add(1)
		go func(r io.Reader) {
			defer fwd.Done()
			forwardLines(r, idx)
		}(pipe)
	}

	// Cancellation (^C on the orchestrator) asks the shard to stop at its
	// next failure-point boundary; its checkpoint stays resumable. A shard
	// that ignores the SIGTERM — wedged in a post-run the deadline didn't
	// catch — is SIGKILLed after the grace period, so shutdown can never
	// hang on fwd.Wait()/cmd.Wait() forever.
	waitDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			serve.TerminateThenKill(cmd.Process, waitDone, sc.killGrace)
		case <-waitDone:
		}
	}()
	if firstIncarnation && os.Getenv(spawnTestKillEnv) == strconv.Itoa(idx) {
		go killShardWhenCheckpointed(ckpt, cmd.Process, waitDone)
	}

	fwd.Wait()
	err = cmd.Wait()
	close(waitDone)
	if err == nil {
		return 0, nil
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), nil
	}
	return 0, err
}

// forwardLines copies one shard output stream to stderr, one prefixed line
// at a time so the fleet's interleaved progress stays readable. It reads
// through ckpt.ForEachLine — bufio.Reader, no line cap — because the old
// bufio.Scanner with its fixed 1 MiB buffer would hit ErrTooLong on one
// long line (a big report set printed by a shard) and silently drop the
// rest of the stream for the shard's lifetime. Long lines are truncated
// and marked for display only; nothing parsed goes through here.
func forwardLines(r io.Reader, idx int) {
	ckpt.ForEachLine(r, func(line string) error {
		fmt.Fprintf(os.Stderr, "[shard %d] %s\n", idx, ckpt.Truncate(line, forwardLineCap))
		return nil
	})
}

// forwardLineCap bounds forwarded display lines, mirroring the worker
// loop's cap in internal/serve.
const forwardLineCap = 16 << 10

// killShardWhenCheckpointed implements the test hook: SIGKILL the shard
// once its checkpoint holds at least two durable lines, guaranteeing the
// respawned incarnation has real work both behind and ahead of it.
func killShardWhenCheckpointed(ckpt string, proc *os.Process, done <-chan struct{}) {
	for {
		select {
		case <-done:
			return
		case <-time.After(2 * time.Millisecond):
		}
		if countCheckpointLines(ckpt) >= 2 {
			proc.Kill()
			return
		}
	}
}

func countCheckpointLines(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	n := 0
	for _, b := range data {
		if b == '\n' {
			n++
		}
	}
	return n
}
