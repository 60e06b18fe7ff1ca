package fl

import (
	"math"
	"sync"

	"heteroswitch/internal/nn"
)

// weightedAverage returns the sample-count-weighted average of client
// weights (params and states) — the FedAvg aggregation rule.
func weightedAverage(results []ClientResult) nn.Weights {
	var total float64
	for _, r := range results {
		total += float64(r.NumSamples)
	}
	avg := results[0].Weights.Zero()
	for _, r := range results {
		avg.Axpy(float32(float64(r.NumSamples)/total), r.Weights)
	}
	return avg
}

// FedAvg is McMahan et al.'s federated averaging: plain local SGD and
// sample-weighted model averaging. The paper's baseline. It implements
// StreamingAggregator (see streaming.go), so the server aggregates it
// shard-parallel without materializing all K snapshots.
type FedAvg struct{}

// Name implements Strategy.
func (FedAvg) Name() string { return "FedAvg" }

// LocalUpdate implements Strategy.
func (FedAvg) LocalUpdate(ctx *ClientContext) ClientResult {
	init := EvalLoss(ctx.Net, ctx.Loss, ctx.Client.Data, ctx.Cfg.BatchSize)
	trainLoss := TrainLocal(ctx.Net, ctx.Client.Data, ctx.Cfg, ctx.Loss, ctx.RNG, nil, nil)
	return ClientResult{
		ClientID: ctx.Client.ID, DeviceIdx: ctx.Client.Device,
		NumSamples: ctx.Client.Data.Len(),
		Weights:    ctx.SnapshotWeights(),
		TrainLoss:  trainLoss, InitLoss: init,
	}
}

// Aggregate implements Strategy.
func (FedAvg) Aggregate(global nn.Weights, results []ClientResult, cfg Config) nn.Weights {
	if len(results) == 0 {
		return global
	}
	return weightedAverage(results)
}

// FedProx (Li et al. 2020) adds a proximal term μ/2·||w - w_global||² to the
// local objective, pulling client updates toward the global model.
type FedProx struct {
	Mu float64
}

// Name implements Strategy.
func (p *FedProx) Name() string { return "FedProx" }

// LocalUpdate implements Strategy.
func (p *FedProx) LocalUpdate(ctx *ClientContext) ClientResult {
	init := EvalLoss(ctx.Net, ctx.Loss, ctx.Client.Data, ctx.Cfg.BatchSize)
	mu := float32(p.Mu)
	hook := func(ps []*nn.Param) {
		// grad += μ (w - w_global)
		for i, param := range ps {
			g, w, wg := param.Grad.Data(), param.W.Data(), ctx.Global.Params[i].Data()
			for j := range g {
				g[j] += mu * (w[j] - wg[j])
			}
		}
	}
	trainLoss := TrainLocal(ctx.Net, ctx.Client.Data, ctx.Cfg, ctx.Loss, ctx.RNG, hook, nil)
	return ClientResult{
		ClientID: ctx.Client.ID, DeviceIdx: ctx.Client.Device,
		NumSamples: ctx.Client.Data.Len(),
		Weights:    ctx.SnapshotWeights(),
		TrainLoss:  trainLoss, InitLoss: init,
	}
}

// Aggregate implements Strategy (same rule as FedAvg).
func (p *FedProx) Aggregate(global nn.Weights, results []ClientResult, cfg Config) nn.Weights {
	if len(results) == 0 {
		return global
	}
	return weightedAverage(results)
}

// QFedAvg implements q-FFL (Li et al. 2019): clients with higher loss get
// up-weighted updates, trading average accuracy for fairness. q=0 reduces to
// (unweighted) FedAvg.
type QFedAvg struct {
	Q float64
}

// Name implements Strategy.
func (q *QFedAvg) Name() string { return "q-FedAvg" }

// LocalUpdate implements Strategy: standard local SGD; the magic is in
// Aggregate.
func (q *QFedAvg) LocalUpdate(ctx *ClientContext) ClientResult {
	return FedAvg{}.LocalUpdate(ctx)
}

// Aggregate implements the q-FFL update:
//
//	Δ_k = (w_global - w_k)/η,  F_k = L_k + ε
//	w ← w_global - Σ_k F_k^q Δ_k / Σ_k (q F_k^{q-1} ||Δ_k||² + F_k^q/η)
func (q *QFedAvg) Aggregate(global nn.Weights, results []ClientResult, cfg Config) nn.Weights {
	if len(results) == 0 {
		return global
	}
	const eps = 1e-10
	invLR := 1.0 / cfg.LR
	num := global.Zero()
	var denom float64
	for _, r := range results {
		delta := global.Sub(r.Weights) // w_global - w_k
		delta.Scale(float32(invLR))
		f := r.InitLoss + eps
		fq := math.Pow(f, q.Q)
		var normSq float64
		for _, p := range delta.Params {
			normSq += p.L2NormSq()
		}
		num.Axpy(float32(fq), delta)
		denom += q.Q*math.Pow(f, q.Q-1)*normSq + fq*invLR
	}
	if denom <= 0 {
		return weightedAverage(results)
	}
	out := global.Clone()
	out.Axpy(float32(-1.0/denom), num)
	// States (BN statistics) are not part of the q-FFL objective; average
	// them as FedAvg does so inference stays calibrated.
	avg := weightedAverage(results)
	for i := range out.States {
		out.States[i].CopyFrom(avg.States[i])
	}
	return out
}

// Scaffold implements SCAFFOLD (Karimireddy et al. 2020): client and server
// control variates correct the client drift caused by non-IID data.
type Scaffold struct {
	// TotalClients is N, used in the server control-variate update.
	TotalClients int

	mu      sync.Mutex
	c       nn.Weights         // server control variate
	clients map[int]nn.Weights // per-client control variates c_k
	deltas  map[int]nn.Weights // per-round c_k deltas, keyed by client
	stepCnt map[int]int        // local step counts per client
}

// Name implements Strategy.
func (s *Scaffold) Name() string { return "Scaffold" }

func (s *Scaffold) ensure(global nn.Weights, clientID int) (c, ck nn.Weights) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.clients == nil {
		s.clients = map[int]nn.Weights{}
		s.deltas = map[int]nn.Weights{}
		s.stepCnt = map[int]int{}
	}
	if s.c.Params == nil {
		s.c = global.Zero()
	}
	ck, ok := s.clients[clientID]
	if !ok {
		ck = global.Zero()
		s.clients[clientID] = ck
	}
	return s.c.Clone(), ck.Clone()
}

// LocalUpdate implements Strategy. Local steps use w ← w - η(g - c_k + c);
// afterwards c_k ← c_k - c + (w_global - w_local)/(Sη).
func (s *Scaffold) LocalUpdate(ctx *ClientContext) ClientResult {
	c, ck := s.ensure(ctx.Global, ctx.Client.ID)
	init := EvalLoss(ctx.Net, ctx.Loss, ctx.Client.Data, ctx.Cfg.BatchSize)
	steps := 0
	hook := func(ps []*nn.Param) {
		for i, param := range ps {
			g, cd, ckd := param.Grad.Data(), c.Params[i].Data(), ck.Params[i].Data()
			for j := range g {
				g[j] += cd[j] - ckd[j]
			}
		}
		steps++
	}
	trainLoss := TrainLocal(ctx.Net, ctx.Client.Data, ctx.Cfg, ctx.Loss, ctx.RNG, hook, nil)
	w := ctx.SnapshotWeights()

	if steps > 0 {
		// c_k_new = c_k - c + (w_global - w_local)/(S·η)
		ckNew := ck.Clone()
		ckNew.Axpy(-1, c)
		drift := ctx.Global.Sub(w)
		drift.Scale(float32(1.0 / (float64(steps) * ctx.Cfg.LR)))
		for i := range ckNew.Params {
			ckNew.Params[i].AddInPlace(drift.Params[i])
		}
		dck := ckNew.Clone()
		dck.Axpy(-1, ck)
		s.mu.Lock()
		s.clients[ctx.Client.ID] = ckNew
		s.deltas[ctx.Client.ID] = dck
		s.stepCnt[ctx.Client.ID] = steps
		s.mu.Unlock()
	}
	return ClientResult{
		ClientID: ctx.Client.ID, DeviceIdx: ctx.Client.Device,
		NumSamples: ctx.Client.Data.Len(),
		Weights:    w,
		TrainLoss:  trainLoss, InitLoss: init,
	}
}

// Aggregate implements Strategy: average client models, then advance the
// server control variate by |S|/N of the mean client-variate delta.
func (s *Scaffold) Aggregate(global nn.Weights, results []ClientResult, cfg Config) nn.Weights {
	if len(results) == 0 {
		return global
	}
	out := weightedAverage(results)
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.TotalClients
	if n <= 0 {
		n = len(results)
	}
	if s.c.Params != nil {
		scale := float32(1.0 / float64(n))
		for _, r := range results {
			if d, ok := s.deltas[r.ClientID]; ok {
				// c += (1/N) Σ Δc_k over sampled clients.
				for i := range s.c.Params {
					s.c.Params[i].Axpy(scale, d.Params[i])
				}
				delete(s.deltas, r.ClientID)
			}
		}
	}
	return out
}
