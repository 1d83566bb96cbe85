package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/spectrecep/spectre/benchmark/oracle"
)

// sample is what one pass of a workload measured.
type sample struct {
	events int           // events fed while the clock ran
	wall   time.Duration // first feed to OnDrain (tcp_paced: first byte to the server's summary)
	// Of the process hosting the engine: user+sys CPU seconds per million
	// events, heap allocations per event, peak resident set in the pass.
	cpuPerMevent   float64
	allocsPerEvent float64
	rssKB          int64

	diff oracle.Diff
	errs int // feed/submit errors, each one a failed operation

	layer   map[string]float64 // per-layer readings of this pass (traced run only)
	shipped uint64             // cluster_shared: events put on a worker link, deduplicated ones included
}

// failed is the number of operations of the pass that count against it.
func (s *sample) failed() int { return s.diff.Failed() + s.errs }

// usage fills in the per-event cost figures from totals over n events.
func (s *sample) usage(cpu time.Duration, mallocs float64, n int) {
	s.cpuPerMevent = cpu.Seconds() / float64(n) * 1e6
	s.allocsPerEvent = mallocs / float64(n)
}

// cpuTime is the user+sys CPU time this process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocCount is the number of heap objects this process has allocated.
func mallocCount() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs)
}

// resetPeakRSS restarts this process's resident-set high-water mark from
// its current size, so that a pass's peak is its own and the reported
// figure can be a median over passes rather than the one largest value of
// the run. Where the kernel refuses, the mark simply keeps rising.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSKB reads this process's resident-set high-water mark.
func peakRSSKB() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}
