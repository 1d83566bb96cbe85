package spectre_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	spectre "github.com/spectrecep/spectre"
)

// TestClusterEndToEnd is the public-API smoke test for distributed
// execution: a coordinator with two loopback workers runs the rise
// query and must produce exactly the per-partition sequential match
// set. (The byte-level ordering guarantee is covered by the golden
// equivalence suite in internal/cluster.)
func TestClusterEndToEnd(t *testing.T) {
	reg := spectre.NewRegistry()
	events := spectre.GenerateNYSE(reg, spectre.NYSEConfig{
		Symbols: 24, Leaders: 4, Minutes: 60, Seed: 7,
	})
	want := expectedPerPartition(t, reg, riseQuerySrc, 8, events)

	cl, err := spectre.ListenCluster("127.0.0.1:0", reg, spectre.ClusterOptions{
		MinWorkers:    2,
		FlushInterval: time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx := context.Background()
	for i := 0; i < 2; i++ {
		w, err := spectre.JoinCluster(ctx, spectre.NewRegistry(), cl.Addr().String(), spectre.ClusterWorkerOptions{Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
	}

	got := make(map[string]int)
	h, err := cl.Submit(ctx, riseQuerySrc, spectre.SinkFunc(func(ce spectre.ComplexEvent) { got[ce.Key()]++ }))
	if err != nil {
		t.Fatal(err)
	}
	if h.Name() != "rise" || h.Shards() != 8 {
		t.Fatalf("handle = %q/%d shards, want rise/8", h.Name(), h.Shards())
	}
	if err := h.FeedBatch(ctx, events); err != nil {
		t.Fatal(err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if err := h.Drain(waitCtx); err != nil {
		t.Fatal(err)
	}
	assertSameMultiset(t, "cluster rise", got, want)
}

// TestClusterSubmitRejections checks that every option but the partition
// options is rejected synchronously with a *QueryError naming it: only the
// query text travels to the workers, so anything else would be silently
// dropped.
func TestClusterSubmitRejections(t *testing.T) {
	reg := spectre.NewRegistry()
	cl, err := spectre.ListenCluster("127.0.0.1:0", reg, spectre.ClusterOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// No worker ever joins: a submission that got past option validation
	// would wait for one, so the deadline turns that into a failure.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()

	cases := []struct {
		option string
		opt    spectre.Option
	}{
		{"WithShedding", spectre.WithShedding()},
		{"WithInstances", spectre.WithInstances(2)},
		{"WithQueueCap", spectre.WithQueueCap(1024)},
		{"WithFixedProbability", spectre.WithFixedProbability(0.5)},
		{"WithoutPlanner", spectre.WithoutPlanner()},
		{"WithRegistry", spectre.WithRegistry(reg)},
	}
	for _, tc := range cases {
		_, err := cl.Submit(ctx, riseQuerySrc, nil, tc.opt, spectre.WithShards(2))
		var qe *spectre.QueryError
		if !errors.As(err, &qe) {
			t.Errorf("%s: Submit error = %v, want *QueryError", tc.option, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.option) {
			t.Errorf("%s: error %q does not name the option", tc.option, err)
		}
	}
}

// TestJoinClusterTypedError checks the satellite contract: exhausting
// the join retry budget surfaces a *ClusterError carrying the attempt
// count.
func TestJoinClusterTypedError(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err := spectre.JoinCluster(ctx, spectre.NewRegistry(), "127.0.0.1:1", spectre.ClusterWorkerOptions{JoinAttempts: 2})
	var ce *spectre.ClusterError
	if !errors.As(err, &ce) {
		t.Fatalf("JoinCluster error = %v, want *ClusterError", err)
	}
	if ce.Op != "join" || ce.Attempts != 2 {
		t.Fatalf("ClusterError = op %q, %d attempts; want join/2", ce.Op, ce.Attempts)
	}
}
