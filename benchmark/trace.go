package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/spectrecep/spectre/benchmark/stat"
)

// tracer keeps spans in memory: one per call from the benchmark into a
// layer's public functions. A nil tracer records nothing, which is how
// the untraced run pays nothing for it.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	pass  int
	spans []stat.Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for none) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, stat.Span{ID: id, Parent: parent, Pass: t.pass, Name: name, Start: now, End: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// instant records a point event (a match delivered, a line read).
func (t *tracer) instant(name string, parent int) { t.begin(name, parent) }

// nextPass starts a new pass id; spans of one pass share it.
func (t *tracer) nextPass() {
	if t != nil {
		t.mu.Lock()
		t.pass++
		t.mu.Unlock()
	}
}

// write stores the spans under dir and prints the self-time table.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	self := stat.SelfTimes(t.spans)
	count := make(map[string]int)
	total := make(map[string]int64)
	for _, s := range t.spans {
		count[s.Name]++
		total[s.Name] += s.End - s.Start
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Printf("\ntrace: %d spans -> %s\n%-28s %10s %12s %12s\n", len(t.spans), path, "span", "count", "total ms", "self ms")
	for _, n := range names {
		fmt.Printf("%-28s %10d %12.2f %12.2f\n", n, count[n], float64(total[n])/1e6, float64(self[n])/1e6)
	}
	return nil
}
