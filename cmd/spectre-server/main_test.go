package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"slices"
	"strings"
	"testing"

	spectre "github.com/spectrecep/spectre"
	"github.com/spectrecep/spectre/internal/transport"
)

// readmeQuery is the README quickstart query with its X predicate left
// open, so that it can mention open and close in either order.
const readmeQuery = `QUERY rise
PATTERN (X Y)
DEFINE X AS %s, Y AS Y.close > X.close
WITHIN 40 EVENTS FROM X
CONSUME ALL
PARTITION BY TYPE SHARDS 4`

// quotes returns n random (open, close) events of one symbol, numbered
// from 0 as the server's admission numbers them.
func quotes(reg *spectre.Registry, n int) []spectre.Event {
	open, close := reg.FieldIndex("open"), reg.FieldIndex("close")
	typ := reg.TypeID("ACME")
	rng := rand.New(rand.NewSource(7))
	events := make([]spectre.Event, n)
	for i := range events {
		f := make([]float64, 2)
		f[open], f[close] = 100*rng.Float64(), 100*rng.Float64()
		events[i] = spectre.Event{Seq: uint64(i), TS: int64(i), Type: typ, Fields: f}
	}
	return events
}

// serveOnce streams events under query text through serveConn over an
// in-memory connection, as spectre-client does, and returns the match
// keys the server printed and its error.
func serveOnce(t *testing.T, text string, reg *spectre.Registry, events []spectre.Event) ([]string, error) {
	t.Helper()
	rt, err := spectre.NewRuntime(spectre.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	stdout := os.Stdout
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = pw
	defer func() { os.Stdout = stdout }()
	lines := make(chan []string)
	go func() {
		var keys []string
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			if key, ok := strings.CutPrefix(sc.Text(), "[conn 1] "); ok {
				keys = append(keys, key)
			}
		}
		lines <- keys
	}()

	server, client := net.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- serveConn(context.Background(), rt, server, 1, serverOpts{instances: 4}, &liveQueries{m: map[int]*liveQuery{}})
	}()
	writeErr := func() error {
		w := transport.NewWriter(client, reg)
		if err := w.WriteQuery(text); err != nil {
			return err
		}
		for i := range events {
			if err := w.WriteEvent(&events[i]); err != nil {
				return err
			}
		}
		return w.Flush()
	}()
	client.Close()
	serveErr := <-done
	pw.Close()
	if writeErr != nil && serveErr == nil {
		t.Fatal(writeErr)
	}
	return <-lines, serveErr
}

// TestReadmeQueryBindsFieldsByName runs the README query through the
// server in both mention orders of open and close. The client's registry
// holds (open, close) and the server's, parsed from the query text, may
// hold them the other way round; either way the server must print what
// the sequential reference finds over the client's events.
func TestReadmeQueryBindsFieldsByName(t *testing.T) {
	reg := spectre.NewRegistry()
	events := quotes(reg, 3000)
	for _, x := range []string{"X.close > X.open", "X.open < X.close"} {
		t.Run(x, func(t *testing.T) {
			text := fmt.Sprintf(readmeQuery, x)
			q, err := spectre.ParseQuery(text, reg)
			if err != nil {
				t.Fatal(err)
			}
			ref, _, err := spectre.RunSequential(q, slices.Clone(events))
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			for i := range ref {
				want = append(want, ref[i].Key())
			}
			got, err := serveOnce(t, text, reg, events)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatal("the reference finds no match; the test is vacuous")
			}
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("server printed %d matches, the sequential reference finds %d", len(got), len(want))
			}
		})
	}
}

// TestMissingFieldRejected: a query that reads a field the stream does
// not announce is refused with a typed error, not evaluated on zeros.
func TestMissingFieldRejected(t *testing.T) {
	reg := spectre.NewRegistry()
	got, err := serveOnce(t, fmt.Sprintf(readmeQuery, "X.volume > X.open"), reg, quotes(reg, 100))
	var mf *transport.MissingFieldError
	if !errors.As(err, &mf) || mf.Field != "volume" {
		t.Fatalf("err = %v, want a *transport.MissingFieldError for volume", err)
	}
	if len(got) != 0 {
		t.Fatalf("a rejected stream printed %d matches", len(got))
	}
}
