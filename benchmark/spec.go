package main

// The fixed constants of the benchmark. They are part of each workload's
// identity: throughput here depends on stream length, so a number is only
// comparable with one taken at the same lengths.
const (
	instances   = 2      // k, operator instances per shard
	feedBatch   = 1024   // events per FeedBatch call
	pacedRate   = 40_000 // events per second in tcp_paced's open-loop phase
	nyseSymbols = 500
	nyseLeaders = 16
	quickDiv    = 20 // -quick divides every stream length by this
)

// streamLen is the number of events one pass of a workload feeds.
// tcp_paced blasts this many and then paces a quarter of them.
var streamLen = map[string]int{
	"q1_heavy":       60_000,
	"q2_narrow":      1_000_000,
	"rise_sharded":   16_000,
	"q2_durable":     1_000_000,
	"cluster_shared": 600_000,
	"tcp_paced":      200_000,
}

// workloadNames lists the workloads in the order the suite runs them.
var workloadNames = []string{"q1_heavy", "q2_narrow", "rise_sharded", "q2_durable", "cluster_shared", "tcp_paced"}

// workload is one prepared set of inputs with its reference output.
type workload interface {
	// pass runs the workload once on a fresh engine.
	pass(tr *tracer) (sample, error)
	// layers fills the per-layer readings of the traced run: extra
	// passes (k=1, dedicated engine) and the replay drivers that push
	// the workload's own events through one layer at a time.
	layers(tr *tracer, out map[string]float64) error
	close()
}

// prepare builds a workload's inputs from the seed: stream, queries,
// reference output, and whatever processes or listeners it needs.
func prepare(name string, seed int64, n int, env *buildEnv) (workload, error) {
	switch name {
	case "q1_heavy", "q2_narrow", "rise_sharded", "q2_durable":
		return prepareInproc(name, seed, n, env.tmp)
	case "cluster_shared":
		return prepareCluster(seed, n)
	case "tcp_paced":
		return prepareTCP(seed, n, env)
	}
	return nil, errUnknownWorkload(name)
}
