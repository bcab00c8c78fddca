package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"github.com/pmemgo/xfdetector/internal/ckpt"
	"github.com/pmemgo/xfdetector/internal/serve"
	"github.com/pmemgo/xfdetector/internal/vcache"
)

// Distributed campaign modes. The daemon and workers share one binary:
//
//	xfdetector -serve 0.0.0.0:7433 -workdir /var/lib/xfd     # daemon
//	xfdetector -worker http://daemon:7433                     # per machine
//	xfdetector -submit http://daemon:7433 -shards 8 \
//	    -workload btree -test 500 -patch btree-skip-add-leaf  # a campaign
//
// The submit mode blocks until the campaign resolves and exits by the
// usual contract (0 clean, 1 bugs, 2 failed, 3 incomplete).

// workerCrashEnv is the deterministic worker crash hook for the serve
// tests and CI smoke: XFDETECTOR_WORKER_TEST_CRASH=N makes the worker
// SIGKILL its shard child after streaming N checkpoint lines and exit
// without telling the daemon — a machine loss the lease expiry must
// absorb.
const workerCrashEnv = "XFDETECTOR_WORKER_TEST_CRASH"

// runServe hosts the campaign daemon until SIGINT/SIGTERM.
func runServe(addr, workdir string, leaseTTL time.Duration) int {
	if workdir == "" {
		dir, err := os.MkdirTemp("", "xfdserve-")
		if err != nil {
			return errorf("creating serve workdir: %v", err)
		}
		workdir = dir
	} else if err := os.MkdirAll(workdir, 0o755); err != nil {
		return errorf("creating -workdir: %v", err)
	}

	srv := serve.NewServer(workdir, leaseTTL)
	// The daemon owns the cross-campaign verdict cache: one file under the
	// workdir, shared by every campaign it ever schedules.
	cache, err := vcache.Open(filepath.Join(workdir, "verdicts.cache"))
	if err != nil {
		return errorf("opening verdict cache: %v", err)
	}
	defer cache.Close()
	srv.Cache = cache
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return errorf("listening on %s: %v", addr, err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutdownCtx)
	}()

	fmt.Fprintf(os.Stderr, "[serve] campaign daemon listening on %s (workdir %s, lease TTL %s)\n",
		ln.Addr(), workdir, leaseTTL)
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return errorf("serving: %v", err)
	}
	return 0
}

// runWorker joins a daemon's fleet until SIGINT/SIGTERM. The worker execs
// this same binary for shard children.
func runWorker(daemonURL string, heartbeat, killGrace time.Duration) int {
	exe, err := os.Executable()
	if err != nil {
		return errorf("locating worker binary: %v", err)
	}
	host, _ := os.Hostname()
	var caps []string
	if runtime.GOOS == "linux" {
		// File-backed pools are mmap/msync-based and linux-only; only
		// linux workers can run -pool-file campaign shards.
		caps = append(caps, serve.CapFileBacked)
	}
	w := &serve.Worker{
		Client:         &serve.Client{BaseURL: daemonURL},
		ID:             fmt.Sprintf("%s-%d", host, os.Getpid()),
		Exe:            exe,
		Caps:           caps,
		HeartbeatEvery: heartbeat,
		Grace:          killGrace,
	}
	if spec := os.Getenv(workerCrashEnv); spec != "" {
		if _, err := fmt.Sscanf(spec, "%d", &w.CrashAfterLines); err != nil || w.CrashAfterLines < 1 {
			return errorf("bad %s=%q: want a positive line count", workerCrashEnv, spec)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch err := w.Run(ctx); {
	case errors.Is(err, serve.ErrWorkerCrashed):
		fmt.Fprintf(os.Stderr, "xfdetector: worker crash hook fired after %d line(s)\n", w.CrashAfterLines)
		return 1
	case errors.Is(err, context.Canceled):
		return 0
	case err != nil:
		return errorf("worker: %v", err)
	}
	return 0
}

// runSubmit submits one campaign, waits for it, prints the merged report,
// and optionally writes the key fingerprint.
func runSubmit(daemonURL string, args []string, shards int, poolFile bool, keysOut string) int {
	client := &serve.Client{BaseURL: daemonURL}
	id, err := client.Submit(serve.CampaignSpec{Args: args, Shards: shards, PoolFile: poolFile})
	if err != nil {
		return errorf("submitting campaign: %v", err)
	}
	fmt.Fprintf(os.Stderr, "submitted campaign %s (%d shard(s)) to %s\n", id, shards, daemonURL)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	st, err := client.WaitDone(ctx, id, 500*time.Millisecond, func(st serve.CampaignStatus) {
		total := "?"
		if st.Total >= 0 {
			total = fmt.Sprint(st.Total)
		}
		fmt.Fprintf(os.Stderr, "campaign %s: %d/%s failure point(s) covered, %d report(s)\n",
			st.ID, st.Covered, total, st.Reports)
	})
	if err != nil {
		return errorf("waiting for campaign %s: %v", id, err)
	}

	for _, sh := range st.ShardStates {
		extra := ""
		if sh.Resume {
			extra = ", rescheduled with -resume"
		}
		if sh.GaveUp {
			extra += ", gave up"
		}
		fmt.Fprintf(os.Stderr, "shard %d/%d: %s (exit %d) on %s after %d attempt(s)%s\n",
			sh.Index, st.Shards, sh.State, sh.ExitCode, sh.Worker, sh.Attempts, extra)
	}
	if st.State == "failed" {
		return errorf("campaign %s failed: %s", id, st.Failure)
	}
	fmt.Print(st.ResultText)
	if keysOut != "" {
		if err := os.WriteFile(keysOut, []byte(ckpt.KeysFileText(st.Keys)), 0o644); err != nil {
			return errorf("writing keys: %v", err)
		}
	}
	return st.ExitCode
}
