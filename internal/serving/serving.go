// Package serving is a discrete-event simulator of a multi-GPU LLM serving
// cluster with request routing — the substrate for the paper's Section 5.4
// request-router experiment (Table 8).
//
// Each GPU runs one model + compression method and serves its queue in
// greedily-formed batches (a coarse approximation of continuous batching:
// requests that arrive while a batch is forming join it, up to the batch
// cap). Batch service time comes from the analytical cost model
// (internal/perf); per-request response lengths come from the length model
// (internal/gen), so compression's verbose-output effect degrades its own
// end-to-end latency exactly as the paper observes.
package serving

import (
	"fmt"
	"sort"

	"rethinkkv/internal/compress"
	"rethinkkv/internal/gen"
	"rethinkkv/internal/perf"
	"rethinkkv/internal/rng"
	"rethinkkv/internal/workload"
)

// GPUConfig is one device in the cluster; Est.Method is the compression
// method it serves.
type GPUConfig struct {
	ID  int
	Est *perf.Estimator
}

// Cluster simulates a fleet of GPUs behind a router.
type Cluster struct {
	GPUs     []GPUConfig
	BatchCap int
	LM       gen.LengthModel
	Seed     uint64
}

// job is a routed request with its realised response length.
type job struct {
	req  workload.Request
	resp int
}

// gpuSim is the per-GPU scheduling state.
type gpuSim struct {
	cfg       GPUConfig
	freeAt    float64
	forming   []job
	formStart float64
	queued    float64
	// inflight is the token load of the committed-but-unfinished batch; it
	// counts toward backlog until freeAt passes.
	inflight float64
	outcomes []Outcome
}

// backlog returns the router-visible load at time now.
func (s *gpuSim) backlog(now float64) float64 {
	b := s.queued
	if now < s.freeAt {
		b += s.inflight
	}
	return b
}

// Run serves the trace and returns per-request outcomes sorted by request ID.
func (c *Cluster) Run(reqs []workload.Request, router Router) ([]Outcome, error) {
	if len(c.GPUs) == 0 {
		return nil, fmt.Errorf("serving: empty cluster")
	}
	batchCap := c.BatchCap
	if batchCap <= 0 {
		batchCap = 8
	}
	sims := make([]*gpuSim, len(c.GPUs))
	for i, g := range c.GPUs {
		sims[i] = &gpuSim{cfg: g}
	}
	ordered := append([]workload.Request(nil), reqs...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ArrivalTime < ordered[j].ArrivalTime })

	for _, req := range ordered {
		now := req.ArrivalTime
		// Flush batches whose start time has passed.
		for _, s := range sims {
			s.flushIfStarted(now)
		}
		views := make([]GPUView, len(sims))
		for i, s := range sims {
			views[i] = GPUView{
				ID: s.cfg.ID, Method: s.cfg.Est.Method.Name,
				FreeAt: s.pendingFreeAt(), QueuedTokens: s.backlog(now), Now: now,
			}
		}
		gi := router.Route(req, views)
		if gi < 0 || gi >= len(sims) {
			return nil, fmt.Errorf("serving: router %s returned invalid GPU %d", router.Name(), gi)
		}
		s := sims[gi]
		resp := c.respLen(req, s.cfg.Est.Method)
		s.enqueue(job{req: req, resp: resp}, now, batchCap)
	}
	var out []Outcome
	for _, s := range sims {
		s.commit() // flush remaining forming batch
		out = append(out, s.outcomes...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Req.ID < out[j].Req.ID })
	return out, nil
}

// respLen realises the request's response length on a GPU's method.
func (c *Cluster) respLen(req workload.Request, m compress.Method) int {
	sev := gen.Severity(m, req.PromptLen, req.RefLen)
	frag := gen.Fragility(req.ID, m.Cost.Kind)
	r := splitFor(c.Seed, req.ID, m.Name)
	return c.LM.ResponseLength(req.RefLen, sev, 1.0, frag, r)
}

// enqueue adds a job to the GPU, committing the forming batch when it has
// already started or is full.
func (s *gpuSim) enqueue(j job, now float64, batchCap int) {
	if len(s.forming) == 0 {
		s.formStart = max(s.freeAt, now)
		s.forming = []job{j}
	} else if now > s.formStart || len(s.forming) >= batchCap {
		s.commit()
		s.formStart = max(s.freeAt, now)
		s.forming = []job{j}
	} else {
		s.forming = append(s.forming, j)
	}
	s.queued += float64(j.req.PromptLen + j.resp)
}

// flushIfStarted commits the forming batch once simulated time passes its
// start.
func (s *gpuSim) flushIfStarted(now float64) {
	if len(s.forming) > 0 && now > s.formStart {
		s.commit()
	}
}

// pendingFreeAt estimates when the GPU would be free including the forming
// batch.
func (s *gpuSim) pendingFreeAt() float64 {
	if len(s.forming) == 0 {
		return s.freeAt
	}
	_, _, dur := serveBatch(s.cfg.Est, s.forming)
	return max(s.freeAt, s.formStart) + dur
}

// commit serves the forming batch and records outcomes.
func (s *gpuSim) commit() {
	if len(s.forming) == 0 {
		return
	}
	start := max(s.freeAt, s.formStart)
	finishes, prefill, dur := serveBatch(s.cfg.Est, s.forming)
	s.inflight = 0
	for i, j := range s.forming {
		s.outcomes = append(s.outcomes, Outcome{
			Req: j.req, GPU: s.cfg.ID, RespLen: j.resp,
			Start: start, FirstToken: start + prefill, Finish: start + finishes[i],
		})
		s.queued -= float64(j.req.PromptLen + j.resp)
		s.inflight += float64(j.req.PromptLen + j.resp)
	}
	s.freeAt = start + dur
	s.forming = nil
}

// serveBatch prices a batch: prefill everything, then decode with the batch
// shrinking as shorter responses finish. Returns per-job finish offsets,
// the prefill duration (first-token offset), and the total duration.
func serveBatch(est *perf.Estimator, batch []job) (finishes []float64, prefill, total float64) {
	b := len(batch)
	meanPrompt := 0
	for _, j := range batch {
		meanPrompt += j.req.PromptLen
	}
	meanPrompt /= b
	prefill = est.PrefillLatency(b, meanPrompt)

	// Sort indices by response length.
	idx := make([]int, b)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return batch[idx[i]].resp < batch[idx[j]].resp })

	finishes = make([]float64, b)
	t := prefill
	prevLen := 0
	active := b
	for _, i := range idx {
		steps := batch[i].resp - prevLen
		if steps > 0 {
			kv := meanPrompt + prevLen + steps/2
			t += float64(steps) * est.DecodeStepLatency(active, kv)
			prevLen = batch[i].resp
		}
		finishes[i] = t
		active--
	}
	return finishes, prefill, t
}

// splitFor derives a deterministic per-(request, method) sampling stream.
func splitFor(seed uint64, reqID int, method string) *rng.RNG {
	h := seed ^ (uint64(reqID) * 0x9e3779b97f4a7c15)
	for _, c := range method {
		h = h*131 + uint64(c)
	}
	return rng.New(h)
}
