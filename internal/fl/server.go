package fl

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/parallel"
)

// Server drives the federated training loop: sample K clients, broadcast the
// global weights, run local updates (in parallel across workers), aggregate.
type Server struct {
	Cfg      Config
	Strategy Strategy
	Loss     nn.Loss
	Clients  []*Client
	Global   nn.Weights

	builder Builder
	rng     *frand.RNG
	// worker-owned network replicas, one per worker
	nets []*nn.Network
	// scratch holds one snapshot buffer per worker replica, allocated on
	// the worker's first client and reused for the server's lifetime.
	scratch []nn.Weights
	// agg folds client results: the strategy itself when it implements
	// StreamingAggregator, otherwise a collector around its Aggregate.
	agg StreamingAggregator
	// accs holds one shard accumulator per worker, reused across rounds
	// when the strategy's accumulators are resettable (so the model-sized
	// float64 sum buffers are allocated once per worker, not per round).
	accs []Accumulator
	// spare double-buffers the outgoing global weights of accumulators that
	// implement IntoFinalizer: FinalizeInto writes each round's new global
	// into the weight set retired two rounds ago instead of allocating a
	// model-sized nn.Weights per round. Safe because nothing retains a
	// global weight set across rounds — checkpoints serialize immediately
	// and GlobalNet/replicas copy.
	spare nn.Weights
}

// NewServer builds a server with a fresh global model from the builder.
func NewServer(cfg Config, builder Builder, loss nn.Loss, strategy Strategy, clients []*Client) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(clients) == 0 {
		return nil, fmt.Errorf("fl: no clients")
	}
	if cfg.ClientsPerRound > len(clients) {
		return nil, fmt.Errorf("fl: K=%d exceeds population %d", cfg.ClientsPerRound, len(clients))
	}
	if cfg.Faults.NeedsVirtualTime() {
		return nil, fmt.Errorf("fl: fault model %q needs the virtual-time async engine for crash/flaky/churn; the synchronous server supports corruption-only models", cfg.Faults)
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	nets := make([]*nn.Network, workers)
	share := intraOpShare(cfg, workers)
	for i := range nets {
		nets[i] = builder()
		nets[i].SetIntraOp(share)
	}
	agg, ok := strategy.(StreamingAggregator)
	if !ok {
		agg = collector{strategy}
	}
	return &Server{
		Cfg:      cfg,
		Strategy: strategy,
		Loss:     loss,
		Clients:  clients,
		Global:   nets[0].Snapshot(),
		builder:  builder,
		rng:      frand.New(cfg.Seed ^ 0x5ca1ab1e),
		nets:     nets,
		scratch:  make([]nn.Weights, workers),
		agg:      agg,
		accs:     make([]Accumulator, workers),
	}, nil
}

// intraOpShare is the core-budget token grant: each of the server's W client
// workers gets an equal share of the total intra-op budget (cfg.IntraOp, or
// GOMAXPROCS when 0), at least 1, so W workers × their kernel parallelism
// never oversubscribes the machine. W=1 — the single-client path — receives
// the full budget.
func intraOpShare(cfg Config, workers int) int {
	total := cfg.IntraOp
	if total <= 0 {
		total = parallel.Workers()
	}
	if workers < 1 {
		workers = 1
	}
	share := total / workers
	if share < 1 {
		share = 1
	}
	return share
}

// SampleClients picks K distinct clients uniformly for the round.
func (s *Server) SampleClients() []*Client {
	idx := s.rng.Choice(len(s.Clients), s.Cfg.ClientsPerRound)
	out := make([]*Client, len(idx))
	for i, j := range idx {
		out[i] = s.Clients[j]
	}
	return out
}

// weightBytes returns the on-the-wire size of one weight set (float32
// payloads; headers ignored).
func weightBytes(w Weights) int64 {
	var n int64
	for _, p := range w.Params {
		n += int64(p.Size()) * 4
	}
	for _, st := range w.States {
		n += int64(st.Size()) * 4
	}
	return n
}

// Weights aliases nn.Weights for the local helper above.
type Weights = nn.Weights

// localUpdate runs one client's local training against the given global
// weights on the given replica — the unit of work shared by the synchronous
// round loop and the asynchronous event loop. round keys the client's
// deterministic per-round RNG; on the async path it is the global version the
// client trains against.
func localUpdate(strategy Strategy, net *nn.Network, global nn.Weights, client *Client,
	cfg Config, loss nn.Loss, round int, scratch *nn.Weights) ClientResult {
	if err := net.LoadWeights(global); err != nil {
		panic("fl: replica incompatible with global weights: " + err.Error())
	}
	ctx := &ClientContext{
		Net:     net,
		Global:  global,
		Client:  client,
		Cfg:     cfg,
		Loss:    loss,
		Round:   round,
		RNG:     client.RoundRNG(round),
		Scratch: scratch,
	}
	return strategy.LocalUpdate(ctx)
}

// RunRound executes one communication round and returns its stats.
//
// Clients are assigned to workers in contiguous index blocks. Each worker
// trains its block on its own replica, snapshots every result into its own
// scratch buffer, and folds the admitted ones into a private shard
// accumulator as they finish; the shards are merged tree-style at round end.
// For streaming strategies peak weight memory is then O(workers) instead of
// O(K); strategies without a streaming fold collect their results and
// aggregate them in sampling order. Either way the shard contents, and thus
// the fold order, are fixed by the config, not by scheduling.
func (s *Server) RunRound(round int) RoundStats {
	sampled := s.SampleClients()
	var dropped []int
	if s.Cfg.ClientDropout > 0 {
		kept := sampled[:0]
		for _, c := range sampled {
			if s.rng.Float64() < s.Cfg.ClientDropout {
				dropped = append(dropped, c.ID)
			} else {
				kept = append(kept, c)
			}
		}
		sampled = kept
	}
	if len(sampled) == 0 {
		// Everyone dropped: the round is lost; global model unchanged.
		return RoundStats{Round: round, Dropped: dropped}
	}
	workers := min(len(s.nets), len(sampled))
	// Reuse one accumulator per worker across rounds (resetting when the
	// strategy supports it), selected on the main goroutine so the shard
	// state lives in exactly one place.
	for w := 0; w < workers; w++ {
		if ra, ok := s.accs[w].(ResettableAccumulator); ok {
			ra.Reset(s.Global, s.Cfg)
		} else {
			s.accs[w] = s.agg.NewAccumulator(s.Global, s.Cfg)
		}
	}
	results := make([]ClientResult, len(sampled))
	// rejected[i] marks a result the validation gate kept out of aggregation;
	// workers write disjoint indices, stats are collected in client order.
	rejected := make([]bool, len(sampled))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			if s.scratch[w].Params == nil {
				s.scratch[w] = s.Global.Clone()
			}
			for i := lo; i < hi; i++ {
				res := localUpdate(s.Strategy, s.nets[w], s.Global, sampled[i], s.Cfg, s.Loss, round, &s.scratch[w])
				if s.admitUpdate(&res, round) {
					s.accs[w].Accumulate(res)
				} else {
					rejected[i] = true
				}
				// The weights may alias the scratch buffer and have been
				// folded already; keep only the scalar stats.
				res.Weights = Weights{}
				results[i] = res
			}
		}(w, w*len(sampled)/workers, (w+1)*len(sampled)/workers)
	}
	wg.Wait()
	s.Global = s.finalizeRound(mergeShards(s.accs[:workers]))

	stats := RoundStats{Round: round, Dropped: dropped}
	wb := weightBytes(s.Global)
	stats.BytesDown = wb * int64(len(sampled)+len(dropped)) // broadcast before dropout is known
	stats.BytesUp = wb * int64(len(sampled))
	var totalSamples float64
	for i, r := range results {
		n := float64(r.NumSamples)
		stats.MeanLoss += r.TrainLoss * n
		stats.MeanInit += r.InitLoss * n
		totalSamples += n
		stats.Sampled = append(stats.Sampled, r.ClientID)
		if rejected[i] {
			stats.Rejected = append(stats.Rejected, r.ClientID)
			stats.BytesWasted += wb
		}
	}
	if totalSamples > 0 {
		stats.MeanLoss /= totalSamples
		stats.MeanInit /= totalSamples
	}
	stats.TotalEpochs = len(sampled) * s.Cfg.LocalEpochs
	return stats
}

// finalizeRound turns the round's merged root accumulator into the new
// global weights. When the accumulator supports IntoFinalizer, the new
// global is written into the server's spare weight buffer — the set retired
// as global two rounds ago — so the steady state of a streaming strategy
// allocates no model-sized weights at all. The previous global (still
// referenced by this round's results until now) becomes the next spare.
// Rounds that aggregated nothing (total dropout) keep the global and the
// spare untouched.
func (s *Server) finalizeRound(root Accumulator) nn.Weights {
	fi, ok := root.(IntoFinalizer)
	if !ok {
		return root.Finalize()
	}
	if s.spare.Params == nil {
		s.spare = s.Global.Zero()
	}
	if !fi.FinalizeInto(s.spare) {
		return s.Global
	}
	neww := s.spare
	s.spare = s.Global
	return neww
}

// SaveCheckpoint serializes the current round counter and global weights so
// a long-running federation can resume after a restart.
func (s *Server) SaveCheckpoint(w io.Writer, round int) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(round))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("fl: checkpoint header: %w", err)
	}
	if _, err := s.Global.WriteTo(w); err != nil {
		return fmt.Errorf("fl: checkpoint weights: %w", err)
	}
	return nil
}

// LoadCheckpoint restores global weights written by SaveCheckpoint and
// returns the stored round counter. The weights must match the server's
// model architecture.
func (s *Server) LoadCheckpoint(r io.Reader) (round int, err error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("fl: checkpoint header: %w", err)
	}
	w, err := nn.ReadWeights(r)
	if err != nil {
		return 0, fmt.Errorf("fl: checkpoint weights: %w", err)
	}
	// Validate against the architecture via a replica before adopting.
	if err := s.nets[0].LoadWeights(w); err != nil {
		return 0, fmt.Errorf("fl: checkpoint incompatible: %w", err)
	}
	s.Global = w
	return int(binary.LittleEndian.Uint64(hdr[:])), nil
}

// Run executes cfg.Rounds rounds, invoking callback (if non-nil) after each.
func (s *Server) Run(callback func(RoundStats)) {
	for round := 0; round < s.Cfg.Rounds; round++ {
		stats := s.RunRound(round)
		if callback != nil {
			callback(stats)
		}
	}
}

// GlobalNet returns a network loaded with the current global weights, for
// evaluation. The returned network is owned by the caller and gets the full
// intra-op budget: evaluation is a single-goroutine path, so its kernels may
// take the whole machine.
func (s *Server) GlobalNet() *nn.Network {
	net := s.builder()
	if err := net.LoadWeights(s.Global); err != nil {
		panic("fl: builder incompatible with global weights: " + err.Error())
	}
	net.SetIntraOp(intraOpShare(s.Cfg, 1))
	return net
}
