package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	spectre "github.com/spectrecep/spectre"
	"github.com/spectrecep/spectre/benchmark/oracle"
	"github.com/spectrecep/spectre/benchmark/stat"
	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/seqengine"
	"github.com/spectrecep/spectre/internal/transport"
)

// tcpQuery is tcp_paced's single-shard query: a rising quote of one of
// the 16 leaders, then two quotes that each close higher than the last.
//
// It says "A.open < A.close", not "A.close > A.open", on purpose. The
// transport carries payload fields by position and the server interns
// field names into a fresh registry in the order the query text mentions
// them, so the query has to mention open first for the server to read
// the generator's (open, close) payload the right way round.
func tcpQuery() string {
	leaders := make([]string, nyseLeaders)
	for i := range leaders {
		leaders[i] = "'" + spectre.LeaderSymbol(i) + "'"
	}
	return fmt.Sprintf(`QUERY abc
PATTERN (A B C)
DEFINE A AS (A.symbol IN (%s) AND A.open < A.close),
       B AS B.close > A.close,
       C AS C.close > B.close
WITHIN 200 EVENTS FROM A
CONSUME ALL`, strings.Join(leaders, ","))
}

// tcpPaced drives a real spectre-server child process over one TCP
// connection per phase: a closed-loop blast for throughput, then an
// open-loop phase at pacedRate for detection lag.
type tcpPaced struct {
	server    string
	reg       *event.Registry
	text      string
	blast     []event.Event // phase 1
	paced     []event.Event // phase 2: a prefix of blast, pacedSeconds long
	wantBlast []string      // the keys the server prints, in reference order
	wantPaced []string
	anchors   []uint64 // per paced reference match, the event it had to wait for
	seqWall   time.Duration
	lagPool   []float64 // detection lags of every untraced pass so far, ms
}

// pacedShare is the length of the open-loop phase as a share of the
// blast's: 200k events blasted take about as long as 50k paced.
const pacedShare = 4

func prepareTCP(seed int64, n int, env *buildEnv) (*tcpPaced, error) {
	if env.server == "" {
		return nil, fmt.Errorf("tcp_paced needs -server <spectre-server binary> (run.sh passes it)")
	}
	w := &tcpPaced{server: env.server, reg: event.NewRegistry(), text: tcpQuery()}
	w.blast = quoteStream(w.reg, seed, n, nyseSymbols, nyseLeaders)
	w.paced = w.blast[:n/pacedShare]
	q, err := spectre.ParseQuery(w.text, w.reg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	out, _, err := spectre.RunSequential(q, w.blast)
	if err != nil {
		return nil, err
	}
	w.seqWall = time.Since(start)
	for i := range out {
		w.wantBlast = append(w.wantBlast, out[i].Key())
	}

	if out, _, err = spectre.RunSequential(q, w.paced); err != nil {
		return nil, err
	}
	eng, err := seqengine.New(q)
	if err != nil {
		return nil, err
	}
	var windows []oracle.Window
	for _, win := range eng.SplitWindows(w.paced) {
		windows = append(windows, oracle.Window{Start: win.StartSeq, End: win.EndSeq()})
	}
	for i := range out {
		w.wantPaced = append(w.wantPaced, out[i].Key())
		w.anchors = append(w.anchors, oracle.Anchor(windows, out[i].WindowID, out[i].DetectedAt, uint64(len(w.paced))))
	}
	return w, nil
}

func (w *tcpPaced) close() {}

// connSummary is the server's per-connection summary, two stderr lines.
type connSummary struct {
	at        time.Time
	events    int
	perSec    float64
	windows   uint64
	versions  uint64
	dropped   uint64
	rollbacks uint64
	gate      uint64
	maxTree   int
	emitLag99 float64 // ms
}

var (
	reSummary = regexp.MustCompile(`conn (\d+): (\d+) events, \d+ matches in \S+ \((\d+) events/sec\)`)
	reDetail  = regexp.MustCompile(`windows=(\d+) versions=(\d+) dropped=(\d+) rollbacks=(\d+) gate-reprocessed=(\d+) max-tree=(\d+) shed=\d+ emit-lag-p99=([\d.]+)ms`)
	rePprof   = regexp.MustCompile(`pprof on (http://\S+)/debug/pprof/`)
	reMallocs = regexp.MustCompile(`(?m)^# Mallocs = (\d+)$`)
)

// serverProc is one spectre-server child and what it has printed.
type serverProc struct {
	cmd   *exec.Cmd
	addr  string
	pprof string

	mu        sync.Mutex
	lines     map[int][]matchLine // stdout match lines per connection
	summaries chan connSummary
	ready     chan string // pprof base URL, then closed once listening
	readers   sync.WaitGroup
}

type matchLine struct {
	key string
	at  time.Time
}

// startServer launches spectre-server with default flags on a free
// loopback port (-max-conns 2, not -quiet) plus its -pprof endpoint,
// which is where the child's allocation count is read from.
func startServer(bin string, onLine func()) (*serverProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	p := &serverProc{addr: addr, lines: map[int][]matchLine{}, summaries: make(chan connSummary, 2), ready: make(chan string, 1)}
	p.cmd = exec.Command(bin, "-addr", addr, "-max-conns", "2", "-pprof", "127.0.0.1:0")
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	p.readers.Add(2)
	go func() {
		defer p.readers.Done()
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 64*1024), 1<<20)
		for sc.Scan() {
			now := time.Now()
			rest, ok := strings.CutPrefix(sc.Text(), "[conn ")
			if !ok {
				continue
			}
			id, key, ok := strings.Cut(rest, "] ")
			conn, err := strconv.Atoi(id)
			if !ok || err != nil {
				continue
			}
			p.mu.Lock()
			p.lines[conn] = append(p.lines[conn], matchLine{key, now})
			p.mu.Unlock()
			onLine()
		}
	}()
	go func() {
		defer p.readers.Done()
		defer close(p.ready)
		var cur connSummary
		url := ""
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case rePprof.MatchString(line):
				url = rePprof.FindStringSubmatch(line)[1]
			case strings.Contains(line, "listening on"):
				p.ready <- url
			case reSummary.MatchString(line):
				m := reSummary.FindStringSubmatch(line)
				cur = connSummary{at: time.Now()}
				cur.events, _ = strconv.Atoi(m[2])
				cur.perSec, _ = strconv.ParseFloat(m[3], 64)
			case reDetail.MatchString(line):
				m := reDetail.FindStringSubmatch(line)
				cur.windows, _ = strconv.ParseUint(m[1], 10, 64)
				cur.versions, _ = strconv.ParseUint(m[2], 10, 64)
				cur.dropped, _ = strconv.ParseUint(m[3], 10, 64)
				cur.rollbacks, _ = strconv.ParseUint(m[4], 10, 64)
				cur.gate, _ = strconv.ParseUint(m[5], 10, 64)
				cur.maxTree, _ = strconv.Atoi(m[6])
				cur.emitLag99, _ = strconv.ParseFloat(m[7], 64)
				p.summaries <- cur
			}
		}
	}()
	select {
	case url, ok := <-p.ready:
		if !ok {
			p.cmd.Wait()
			return nil, fmt.Errorf("spectre-server exited before listening on %s", addr)
		}
		p.pprof = url
	case <-time.After(10 * time.Second):
		p.kill()
		return nil, fmt.Errorf("spectre-server did not start listening on %s", addr)
	}
	return p, nil
}

func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	p.readers.Wait()
	p.cmd.Wait()
}

// wait collects the child: its readers end with its output, then its
// exit status and resource usage are read.
func (p *serverProc) wait() (cpu time.Duration, rssKB int64, err error) {
	p.readers.Wait()
	err = p.cmd.Wait()
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssKB = ru.Maxrss
	}
	return p.cmd.ProcessState.UserTime() + p.cmd.ProcessState.SystemTime(), rssKB, err
}

// mallocs reads the child's heap allocation count from its pprof endpoint.
func (p *serverProc) mallocs() (float64, error) {
	resp, err := http.Get(p.pprof + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	m := reMallocs.FindSubmatch(body)
	if m == nil {
		return 0, fmt.Errorf("no Mallocs line in the server's heap profile")
	}
	return strconv.ParseFloat(string(m[1]), 64)
}

func (p *serverProc) summary() (connSummary, error) {
	select {
	case s := <-p.summaries:
		return s, nil
	case <-time.After(60 * time.Second):
		return connSummary{}, fmt.Errorf("no connection summary from spectre-server within 60 s")
	}
}

// dial opens a connection and submits the query.
func (w *tcpPaced) dial(p *serverProc) (net.Conn, *transport.Writer, error) {
	conn, err := net.Dial("tcp", p.addr)
	if err != nil {
		return nil, nil, err
	}
	tw := transport.NewWriter(conn, w.reg)
	if err := tw.WriteQuery(w.text); err == nil {
		err = tw.Flush()
	}
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	return conn, tw, nil
}

// sendPaced writes the paced stream in 1 ms ticks: at each tick, every
// event that has fallen due since the last one, then a flush. It returns
// the start of the schedule and, per event in ms since then, when it was
// due and when its flush returned.
func (w *tcpPaced) sendPaced(tw *transport.Writer, tr *tracer, parent int) (t0 time.Time, due, sent []float64, err error) {
	n := len(w.paced)
	due, sent = make([]float64, n), make([]float64, n)
	t0 = time.Now()
	for i := 0; i < n; {
		now := time.Since(t0)
		upto := min(n, int(now.Seconds()*pacedRate)+1)
		if i >= upto {
			time.Sleep(time.Millisecond - now%time.Millisecond)
			continue
		}
		fl := tr.begin("transport.WriteEvent+Flush", parent)
		first := i
		for ; i < upto; i++ {
			due[i] = float64(i) / pacedRate * 1000
			if err := tw.WriteEvent(&w.paced[i]); err != nil {
				return t0, nil, nil, err
			}
		}
		if err := tw.Flush(); err != nil {
			return t0, nil, nil, err
		}
		tr.end(fl)
		at := ms(time.Since(t0))
		for j := first; j < i; j++ {
			sent[j] = at
		}
	}
	return t0, due, sent, nil
}

func closeWrite(conn net.Conn) error { return conn.(*net.TCPConn).CloseWrite() }

func (w *tcpPaced) pass(tr *tracer) (sample, error) {
	s := sample{events: len(w.blast), layer: map[string]float64{}}
	tr.nextPass()
	root := tr.begin("pass", -1)
	defer tr.end(root)

	p, err := startServer(w.server, func() { tr.instant("server.stdout line", root) })
	if err != nil {
		return s, err
	}
	fail := func(err error) (sample, error) { p.kill(); return s, err }

	// Phase 1, closed loop: blast the stream; the clock runs from the
	// first byte to the server's summary line for the connection.
	ph := tr.begin("phase1.blast", root)
	conn, tw, err := w.dial(p)
	if err != nil {
		return fail(err)
	}
	start := time.Now()
	var writing time.Duration
	for i := range w.blast {
		t := time.Now()
		err := tw.WriteEvent(&w.blast[i])
		writing += time.Since(t)
		if err != nil {
			return fail(err)
		}
	}
	t := time.Now()
	if err := tw.Flush(); err == nil {
		err = closeWrite(conn)
	}
	writing += time.Since(t)
	if err != nil {
		return fail(err)
	}
	sum1, err := p.summary()
	if err != nil {
		return fail(err)
	}
	conn.Close()
	tr.end(ph)
	s.wall = sum1.at.Sub(start)
	s.layer["tcp.client_write_block_share"] = writing.Seconds() / s.wall.Seconds()
	s.layer["tcp.server_events_per_s"] = sum1.perSec

	// Phase 2, open loop: the stream again at pacedRate, in 1 ms ticks.
	// Event i is due at t0 + i/pacedRate whether or not the server keeps up.
	ph = tr.begin("phase2.paced", root)
	conn, tw, err = w.dial(p)
	if err != nil {
		return fail(err)
	}
	mal0, err := p.mallocs()
	if err != nil {
		return fail(err)
	}
	n := len(w.paced)
	t0, due, sent, err := w.sendPaced(tw, tr, ph)
	if err != nil {
		return fail(err)
	}
	// The server has kept pace, so it has nothing left but the windows
	// still open; read its allocation count while it is still alive.
	time.Sleep(20 * time.Millisecond)
	mal1, err := p.mallocs()
	if err != nil {
		return fail(err)
	}
	if err := closeWrite(conn); err != nil {
		return fail(err)
	}
	sum2, err := p.summary()
	if err != nil {
		return fail(err)
	}
	conn.Close()
	tr.end(ph)

	cpu, rssKB, err := p.wait()
	if err != nil {
		return s, fmt.Errorf("spectre-server: %w", err)
	}
	// CPU over both phases; allocations over the paced phase, where the
	// server has nothing queued when its counter is read.
	s.cpuPerMevent = cpu.Seconds() / float64(len(w.blast)+n) * 1e6
	s.allocsPerEvent = (mal1 - mal0) / float64(n)
	s.rssKB = rssKB

	// Both connections must have printed the reference matches in order.
	seen := make(map[string]float64, len(w.wantPaced)) // phase 2: key -> ms since t0
	for c, want := range [][]string{w.wantBlast, w.wantPaced} {
		var got []string
		for _, l := range p.lines[c+1] {
			got = append(got, l.key)
			if _, dup := seen[l.key]; c == 1 && !dup {
				seen[l.key] = ms(l.at.Sub(t0))
			}
		}
		s.diff.Add(oracle.Compare([][]string{want}, got))
	}
	if sum1.events != len(w.blast) || sum2.events != n {
		s.errs++
	}

	seenAt := make([]float64, len(w.wantPaced))
	for i, k := range w.wantPaced {
		if at, ok := seen[k]; ok {
			seenAt[i] = at
		} else {
			seenAt[i] = -1
		}
	}
	lags := oracle.Lags(due, w.anchors, seenAt)
	if tr == nil { // lag is an end-to-end figure: taken with tracing off
		w.lagPool = append(w.lagPool, lags...)
	}
	anchorDue := make([]float64, len(w.anchors))
	for i, a := range w.anchors {
		anchorDue[i] = due[a] / 1000
	}
	late := stat.Lateness(due, sent)
	sort.Float64s(late)
	s.layer["tcp.gen_late_p99_ms"] = stat.Percentile(late, 0.99)
	s.layer["tcp.lag_slope_ms_per_s"] = stat.Slope(anchorDue, lags)
	s.layer["tcp.server_emit_lag_p99_ms"] = sum2.emitLag99
	s.layer["core.versions_per_kevent"] = per(sum2.versions, uint64(n), 1000)
	s.layer["core.version_drop_share"] = per(sum2.dropped, sum2.versions, 1)
	s.layer["core.rollbacks_per_kwindow"] = per(sum2.rollbacks, sum2.windows, 1000)
	s.layer["core.gate_reprocessed_per_kwindow"] = per(sum2.gate, sum2.windows, 1000)
	s.layer["core.max_tree_size"] = float64(sum2.maxTree)
	return s, nil
}

// layers of tcp_paced: detection lag over the untraced passes so far,
// then the wire formats and the engine layers replayed on the paced
// stream.
func (w *tcpPaced) layers(tr *tracer, out map[string]float64) error {
	lags := append([]float64(nil), w.lagPool...)
	sort.Float64s(lags)
	top := stat.TopPercentile(len(lags))
	out["tcp.detect_lag_p50_ms"] = finite(stat.Percentile(lags, 0.5))
	out["tcp.detect_lag_p99_ms"] = finite(stat.Percentile(lags, top))
	out["tcp.detect_lag_percentile"] = top * 100
	out["tcp.detect_lag_samples"] = float64(len(lags))
	out["seqengine.events_per_s"] = float64(len(w.blast)) / w.seqWall.Seconds()

	if err := replayTransport(tr, w.reg, w.blast, out); err != nil {
		return err
	}
	q, err := spectre.ParseQuery(w.text, w.reg)
	if err != nil {
		return err
	}
	return replayEngineLayers(tr, q, w.reg, w.paced, out)
}

// lagCeilingMS stands in for the lag of a match that never arrived, so a
// percentile that reaches one is far over any limit yet still a number.
const lagCeilingMS = 60_000

func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return lagCeilingMS
	}
	return v
}
