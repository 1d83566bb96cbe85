package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"github.com/spectrecep/spectre/benchmark/stat"
)

// aaRuns is how many runs, at consecutive seeds, make up one set of -aa.
// Sets are compared by the median of their runs, as the acceptance check
// of the benchmark contract compares them; a single run against a single
// run trips a 25 % bound on this machine's slow spells alone.
const aaRuns = 3

// suite runs the selected workloads one child process each, so that no
// workload inherits another's heap or peak memory, and prints every
// metric by name. With -trace 1 each workload's traced run follows its
// untraced one; -quick also runs both and checks them; -aa runs the
// untraced set twice over aaRuns seeds and holds the second set's
// medians against the first's.
func suite(cfg config, decl *declaration) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	modes := []int{0}
	if cfg.trace == 1 || cfg.quick {
		modes = []int{0, 1}
	}
	sets, runs := 1, 1
	if cfg.aa {
		sets, runs, modes = 2, aaRuns, []int{0}
	}

	type key struct {
		set      int
		workload string
	}
	endToEnd := map[key]series{}  // per metric, one value per run of the set
	tally := map[string]*result{} // per workload, attempted and failed over every run
	var problems []string
	for set := 0; set < sets; set++ {
		for _, w := range cfg.workloads {
			endToEnd[key{set, w}] = series{}
			if tally[w] == nil {
				tally[w] = &result{}
			}
			for run := 0; run < runs; run++ {
				for _, mode := range modes {
					child := cfg
					child.seed += int64(run)
					fmt.Printf("\n==== %s, seed %d, trace %d", w, child.seed, mode)
					if cfg.aa {
						fmt.Printf(", set %d of 2", set+1)
					}
					fmt.Println(" ====")
					res, err := runChild(self, child, w, mode)
					if err != nil {
						return fmt.Errorf("%s (trace %d): %w", w, mode, err)
					}
					tally[w].Attempted += res.Attempted
					tally[w].Failed += res.Failed
					if !res.Correct {
						problems = append(problems, fmt.Sprintf("%s (trace %d): %d of %d operations failed", w, mode, res.Failed, res.Attempted))
					}
					declared := decl.EndToEnd
					if mode == 1 {
						declared = decl.PerLayer
					}
					for _, m := range declared {
						v, ok := res.Metrics[m.Name]
						if !ok {
							problems = append(problems, fmt.Sprintf("%s (trace %d): metric %s of BENCHMARK.json was not printed", w, mode, m.Name))
						}
						if mode == 0 {
							endToEnd[key{set, w}].add(m.Name, v.Value)
						}
					}
				}
			}
		}
	}

	fmt.Printf("\n==== end-to-end metrics, seed %d ====\n%-16s", cfg.seed, "workload")
	for _, m := range decl.EndToEnd {
		fmt.Printf(" %18s", m.Name)
	}
	fmt.Printf(" %10s\n%-16s", "failed", "")
	for _, m := range decl.EndToEnd {
		fmt.Printf(" %18s", m.Unit)
	}
	fmt.Println()
	for _, w := range cfg.workloads {
		fmt.Printf("%-16s", w)
		for _, m := range decl.EndToEnd {
			fmt.Printf(" %18.6g", stat.Median(endToEnd[key{0, w}][m.Name]))
		}
		fmt.Printf(" %6d/%d\n", tally[w].Failed, tally[w].Attempted)
	}

	if cfg.aa {
		fmt.Printf("\n==== second set against the first, medians of %d runs (positive = worse) ====\n%-16s %-20s %14s %14s %9s %7s\n",
			aaRuns, "workload", "metric", "first", "second", "change", "bound")
		for _, w := range cfg.workloads {
			for _, m := range decl.EndToEnd {
				va, vb := stat.Median(endToEnd[key{0, w}][m.Name]), stat.Median(endToEnd[key{1, w}][m.Name])
				worse := (vb - va) / va
				if m.Better == "higher" {
					worse = -worse
				}
				verdict := ""
				if worse > m.Bound {
					verdict = "  EXCEEDED"
					problems = append(problems, fmt.Sprintf("%s %s: second set worse by %.1f %%, bound %.0f %%", w, m.Name, worse*100, m.Bound*100))
				}
				fmt.Printf("%-16s %-20s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n", w, m.Name, va, vb, worse*100, m.Bound*100, verdict)
			}
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d problem(s):\n  %s", len(problems), strings.Join(problems, "\n  "))
	}
	return nil
}

// runChild runs one workload in a child process, passes its report
// through and returns the result on its last line.
func runChild(self string, cfg config, workload string, trace int) (*result, error) {
	args := []string{"-server", cfg.env.server, "-workload", workload,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace)}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	last := lines[len(lines)-1]
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil || res.Metrics == nil {
		os.Stdout.Write(stdout.Bytes())
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %v", err)
	}
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	return &res, nil // a quick child exits non-zero on a wrong match stream; the result says so
}
