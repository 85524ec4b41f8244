package rethinkkv

import (
	"rethinkkv/internal/compress"
	"rethinkkv/internal/engine"
	"rethinkkv/internal/gpu"
	"rethinkkv/internal/model"
	"rethinkkv/internal/sched"
)

// Methods returns every registered compression method name, sorted: fp16,
// gear-2, gear-4, h2o-256, h2o-512, kivi-2, kivi-4, snapkv-512, stream-256,
// stream-512.
func Methods() []string { return compress.Names() }

// PaperMethods returns the five methods of the paper's main evaluation:
// fp16, kivi-4, gear-4, h2o-512, stream-512.
func PaperMethods() []string {
	set := compress.PaperSet()
	out := make([]string, len(set))
	for i, m := range set {
		out[i] = m.Name
	}
	return out
}

// Engines returns the serving-engine profile names the cost model supports.
func Engines() []string {
	all := engine.Known()
	out := make([]string, len(all))
	for i, p := range all {
		out[i] = p.Name
	}
	return out
}

// Hardware returns the accelerator descriptor names the cost model supports.
func Hardware() []string {
	all := gpu.All()
	out := make([]string, len(all))
	for i, h := range all {
		out[i] = h.Name
	}
	return out
}

// Models returns the model shape descriptor names, full-size then tiny.
func Models() []string {
	all := model.All()
	out := make([]string, len(all))
	for i, c := range all {
		out[i] = c.Name
	}
	return out
}

// Router policy names, in the paper's Table 8 order, plus the live-only
// KV-pressure policy the real multi-engine fleet adds.
const (
	RouterBaseline       = "baseline"
	RouterWithThroughput = "w/throughput"
	RouterWithLength     = "w/length"
	RouterWithBoth       = "w/both"
	// RouterKVPressure routes on live KV-cache headroom: backlog plus
	// in-flight prefill debt, with a heavy penalty for engines whose free
	// page budget cannot hold the request's predicted KV demand. Only the
	// real-engine backends populate the live fields it reads; under the
	// simulator it degrades to backlog balancing.
	RouterKVPressure = "kv-pressure"
)

// Routers returns the four routing policies of the paper's Section 5.4,
// selectable by name via Cluster.Router.
func Routers() []string {
	return []string{RouterBaseline, RouterWithThroughput, RouterWithLength, RouterWithBoth}
}

// FleetRouters returns the routing policies selectable via WithRouter on
// the live multi-engine fleet: the paper's four plus kv-pressure.
func FleetRouters() []string {
	return append(Routers(), RouterKVPressure)
}

// KV quantization method names for the live serving plane (WithKVQuant).
// These are orthogonal to the offline compression methods of Methods():
// a Methods() entry changes what the accuracy/cost study retains, while a
// KV quant method changes how the real engines' paged caches store every
// retained token.
const (
	// KVQuantFP32 stores full-precision fp32 pages (the default).
	KVQuantFP32 = "fp32"
	// KVQuantInt8 stores 8-bit uniform codes with float16 scale pairs,
	// ~3–4× the resident pages per byte budget.
	KVQuantInt8 = "int8"
	// KVQuantInt4 stores 4-bit codes packed two per byte, ~5–8× the
	// resident pages per byte budget.
	KVQuantInt4 = "int4"
)

// KVQuantMethods returns the KV page precisions selectable via WithKVQuant
// on the real serving backends.
func KVQuantMethods() []string {
	return []string{KVQuantFP32, KVQuantInt8, KVQuantInt4}
}

// Scheduling policy names for the continuous-batching server
// (WithSchedPolicy).
const (
	// SchedFCFS admits in arrival order and preempts the newest arrival.
	SchedFCFS = sched.PolicyFCFS
	// SchedSJF is shortest-job-first on the predicted response length,
	// preempting the longest predicted remainder.
	SchedSJF = sched.PolicySJF
)

// SchedPolicies returns the continuous-batching scheduling policies
// selectable via WithSchedPolicy.
func SchedPolicies() []string { return sched.Policies() }
