package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// printEnv prints what a reader needs to compare this run with another:
// the code, the machine and the inputs.
func printEnv(cfg config, workload string, n int) {
	sha, dirty := "none (not a git checkout)", ""
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
			dirty = " (dirty)"
		}
	}
	kernel := "unknown"
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(raw))
	}
	fmt.Printf("env: git %s%s, %s, nproc %d, GOMAXPROCS %d, kernel %s\n",
		sha, dirty, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), kernel)
	fmt.Printf("run: workload %s, seed %d, %d events per pass, k=%d, batch %d, trace %d, %.0f s\n",
		workload, cfg.seed, n, instances, feedBatch, cfg.trace, cfg.seconds)
}
