// Command spectre-client reads events from a dataset file and streams
// them to a spectre-server over TCP, as fast as possible (the throughput
// measurement mode of the paper's evaluation) or rate-limited. With
// -query it first submits its own query to the server's shared runtime
// (the multi-query deployment); without it the server's fallback query
// applies. Payload fields travel by the names of the file's "# fields:"
// header (cmd/datagen writes it).
//
// With -reconnect the client survives a server restart: every
// connection opens with a resume handshake (the server answers with the
// position its durable WAL — spectre-server -state-dir — already
// journalled), broken connections are retried with capped exponential
// backoff plus jitter, and rate-limited streams carry application-level
// heartbeats so a dead server surfaces as a write error within seconds
// instead of an idle hang.
//
// Usage:
//
//	spectre-client -addr localhost:7071 -file nyse.events
//	spectre-client -addr localhost:7071 -file nyse.events -query q.mrq
//	spectre-client -addr localhost:7071 -file nyse.events -rate 10000
//	spectre-client -addr localhost:7071 -file nyse.events -query q.mrq -reconnect
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	spectre "github.com/spectrecep/spectre"
	"github.com/spectrecep/spectre/internal/transport"
)

// heartbeatEvery paces keepalive frames on rate-limited streams.
const heartbeatEvery = 2 * time.Second

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spectre-client:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", "localhost:7071", "server address")
		file       = flag.String("file", "", "dataset file (datagen text format)")
		queryFile  = flag.String("query", "", "query file to submit before streaming (multi-query server)")
		rate       = flag.Int("rate", 0, "events per second (0 = unthrottled)")
		reconnect  = flag.Bool("reconnect", false, "resume over reconnects: retry broken connections with backoff and ask the server where to resume (requires a durable server, -state-dir)")
		maxRetries = flag.Int("max-retries", 0, "give up after this many consecutive failed attempts (0 = retry until interrupted)")
	)
	flag.Parse()
	if *file == "" {
		return fmt.Errorf("-file is required")
	}
	// SIGINT/SIGTERM stops the send mid-stream but still closes the write
	// side cleanly, so the server drains what was sent instead of seeing
	// a torn frame.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	f, err := os.Open(*file)
	if err != nil {
		return err
	}
	defer f.Close()
	reg := spectre.NewRegistry()
	events, err := spectre.ReadEvents(f, reg)
	if err != nil {
		return err
	}

	var queryText string
	if *queryFile != "" {
		text, err := os.ReadFile(*queryFile)
		if err != nil {
			return err
		}
		queryText = string(text)
	}

	start := time.Now()
	if !*reconnect {
		sent, err := sendOnce(ctx, *addr, reg, events, queryText, *rate, false)
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "spectre-client: interrupted; closed stream early")
		} else if err != nil {
			return err
		}
		report(sent, time.Since(start))
		return nil
	}

	// Reconnect loop: each attempt re-handshakes and the server's resume
	// offset decides what is left to send, so a mid-stream server restart
	// costs only the backoff delay plus the unjournalled suffix.
	backoff := transport.Backoff{Min: 200 * time.Millisecond, Max: 10 * time.Second}
	attempt := 0
	totalSent := 0
	for {
		sent, err := sendOnce(ctx, *addr, reg, events, queryText, *rate, true)
		totalSent += sent
		if err == nil {
			report(totalSent, time.Since(start))
			return nil
		}
		if errors.Is(err, context.Canceled) || ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "spectre-client: interrupted; closed stream early")
			report(totalSent, time.Since(start))
			return nil
		}
		if sent > 0 {
			attempt = 0 // the connection made progress; restart the backoff
		}
		attempt++
		if *maxRetries > 0 && attempt > *maxRetries {
			// The retry budget is spent: surface a typed error carrying the
			// attempt count, so scripts can errors.As on *ClusterError.
			return &spectre.ClusterError{Op: "reconnect", Addr: *addr, Attempts: attempt, Err: err}
		}
		d := backoff.Next(attempt - 1)
		fmt.Fprintf(os.Stderr, "spectre-client: connection lost (%v); retrying in %v\n", err, d.Round(time.Millisecond))
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			report(totalSent, time.Since(start))
			return nil
		}
	}
}

func report(sent int, elapsed time.Duration) {
	fmt.Fprintf(os.Stderr, "spectre-client: sent %d events in %v (%.0f events/sec)\n",
		sent, elapsed.Round(time.Millisecond), float64(sent)/elapsed.Seconds())
}

// sendOnce runs one connection: dial, handshake, stream, close-write. In
// resume mode it asks the server where to start and sends events[pos:];
// otherwise it sends everything. It returns how many events were written
// on this connection (not necessarily received) and the first error.
func sendOnce(ctx context.Context, addr string, reg *spectre.Registry, events []spectre.Event,
	queryText string, rate int, resume bool) (int, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()

	w := transport.NewWriter(conn, reg)
	if resume {
		err = w.WriteQueryResume(queryText)
	} else if queryText != "" {
		err = w.WriteQuery(queryText)
	}
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		return 0, err
	}
	from := 0
	if resume {
		pos, err := transport.NewReader(conn, reg).ReadResume()
		if err != nil {
			return 0, fmt.Errorf("resume handshake: %w", err)
		}
		if pos > uint64(len(events)) {
			return 0, fmt.Errorf("server resume position %d beyond dataset (%d events)", pos, len(events))
		}
		from = int(pos)
		if from > 0 {
			fmt.Fprintf(os.Stderr, "spectre-client: server resumed at event %d\n", from)
		}
	}

	sent := 0
	next := time.Now()
	for i := from; i < len(events) && ctx.Err() == nil; i++ {
		if err := w.WriteEvent(&events[i]); err != nil {
			return sent, err
		}
		sent++
		if rate > 0 {
			next = next.Add(time.Second / time.Duration(rate))
			if err := waitThrottled(ctx, w, next); err != nil {
				return sent, err
			}
		}
	}
	if err := w.Flush(); err != nil {
		return sent, err
	}
	if cw, ok := conn.(interface{ CloseWrite() error }); ok {
		if err := cw.CloseWrite(); err != nil {
			return sent, err
		}
	}
	if ctx.Err() != nil {
		return sent, context.Canceled
	}
	return sent, nil
}

// waitThrottled sleeps until next, flushing buffered frames first and
// emitting a heartbeat every heartbeatEvery so a dead server fails the
// connection during the wait instead of after it.
func waitThrottled(ctx context.Context, w *transport.Writer, next time.Time) error {
	for {
		d := time.Until(next)
		if d <= 0 {
			return nil
		}
		if err := w.Flush(); err != nil {
			return err
		}
		timer := time.NewTimer(min(d, heartbeatEvery))
		select {
		case <-timer.C:
			if time.Until(next) > 0 {
				if err := w.WriteHeartbeat(); err != nil {
					return err
				}
				if err := w.Flush(); err != nil {
					return err
				}
			}
		case <-ctx.Done():
			timer.Stop()
			return nil
		}
	}
}
