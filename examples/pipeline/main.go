// Pipeline demonstrates the paper's deployment setup end to end, in one
// process: a client streams a generated dataset over a real TCP
// connection to a SPECTRE engine that detects an M-shaped chart pattern
// (the paper's Q2) and prints throughput.
//
// Run it with:
//
//	go run ./examples/pipeline
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	spectre "github.com/spectrecep/spectre"
	"github.com/spectrecep/spectre/internal/transport"
)

const q2 = `
	QUERY Q2
	PATTERN (A B+ C D+ E F+ G H+ I J+ K L+ M)
	DEFINE A AS A.close < 85,
	       B AS (B.close > 85 AND B.close < 120),
	       C AS C.close > 120,
	       D AS (D.close > 85 AND D.close < 120),
	       E AS E.close < 85,
	       F AS (F.close > 85 AND F.close < 120),
	       G AS G.close > 120,
	       H AS (H.close > 85 AND H.close < 120),
	       I AS I.close < 85,
	       J AS (J.close > 85 AND J.close < 120),
	       K AS K.close > 120,
	       L AS (L.close > 85 AND L.close < 120),
	       M AS M.close < 85
	WITHIN 2000 EVENTS FROM EVERY 250 EVENTS
	CONSUME ALL
`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Server side: registry, query, engine.
	reg := spectre.NewRegistry()
	query, err := spectre.ParseQuery(q2, reg)
	if err != nil {
		return err
	}
	eng, err := spectre.NewEngine(query, spectre.WithInstances(4))
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Printf("engine listening on %s\n", ln.Addr())

	// Client side: generate the dataset with its own registry (types and
	// fields travel by name over the wire) and stream it.
	clientErr := make(chan error, 1)
	go func() {
		clientReg := spectre.NewRegistry()
		events := spectre.GenerateNYSE(clientReg, spectre.NYSEConfig{
			Symbols: 200, Leaders: 8, Minutes: 300, Seed: 3,
		})
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			clientErr <- err
			return
		}
		defer conn.Close()
		start := time.Now()
		if err := transport.Send(context.Background(), conn, clientReg, events); err != nil {
			clientErr <- err
			return
		}
		fmt.Printf("client: sent %d events in %v\n", len(events), time.Since(start).Round(time.Millisecond))
		clientErr <- nil
	}()

	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	src, srcErr := transport.SourceFromConn(conn, reg)

	matches := 0
	start := time.Now()
	if err := eng.Run(context.Background(), src, spectre.SinkFunc(func(ce spectre.ComplexEvent) {
		matches++
		if matches <= 5 {
			fmt.Printf("  M-shape detected: window w%d, %d constituents\n", ce.WindowID, len(ce.Constituents))
		}
	})); err != nil {
		return err
	}
	elapsed := time.Since(start)
	if err := srcErr(); err != nil {
		return err
	}
	if err := <-clientErr; err != nil {
		return err
	}
	m := eng.Metrics()
	fmt.Printf("engine: %d events, %d matches in %v (%.0f events/sec), windows %d, versions %d\n",
		m.EventsIngested, matches, elapsed.Round(time.Millisecond),
		float64(m.EventsIngested)/elapsed.Seconds(), m.WindowsOpened, m.VersionsCreated)
	return nil
}
