// Package attention is the paper-facing reference set of single-query
// attention kernels: they produce identical outputs but differ in pass
// structure and memory traffic.
//
//   - Naive: the multi-pass "transformers library" kernel — materialises the
//     score vector, so K is read, scores are written and re-read, then V is
//     read (three logical passes over sequence-length-sized data).
//   - Flash: a FlashAttention-style one-pass kernel with online softmax —
//     K and V are each streamed once and no score vector ever hits memory.
//   - Paged: Flash over a block-table layout, one indirection per page.
//   - Quest (quest.go): query-aware page sparsity over Paged's layout.
//
// Each kernel reports its byte traffic. The analytical cost model in
// internal/perf uses the same pass structure; these kernels are the
// executable ground truth that validates it, and they also demonstrate the
// paper's compatibility argument: computing an eviction policy's attention
// scores under Flash requires an extra pass that re-reads K (FlashScores).
//
// None of these kernels runs inside the serving engine. The model's decode
// and prefill attention is the materialised two-pass page walk in
// internal/model (attend.go); the only code here the engine calls is the
// page-selection pair in sparse.go (CriticalityStrided, SelectTopPages),
// shared with the offline Quest so both rank pages identically.
package attention

import (
	"math"

	"rethinkkv/internal/tensor"
)

// Traffic accounts the memory behaviour of one kernel invocation in
// elements (multiply by dtype size for bytes).
type Traffic struct {
	ElemsRead    int64
	ElemsWritten int64
	Passes       int // logical passes over O(seqlen)-sized data
}

// Add accumulates other into t.
func (t *Traffic) Add(other Traffic) {
	t.ElemsRead += other.ElemsRead
	t.ElemsWritten += other.ElemsWritten
	if other.Passes > 0 {
		t.Passes += other.Passes
	}
}

// Bytes returns total bytes moved assuming the given element size.
func (t Traffic) Bytes(elemSize int64) int64 {
	return (t.ElemsRead + t.ElemsWritten) * elemSize
}

// Naive computes softmax(q·Kᵀ/√d)·V by materialising the score vector, as
// the unoptimized transformers-library path does. Returns the attention
// output, the (post-softmax) scores, and the traffic.
func Naive(q []float32, keys, vals [][]float32) ([]float32, []float32, Traffic) {
	d := len(q)
	n := len(keys)
	invSqrt := float32(1 / math.Sqrt(float64(d)))
	scores := make([]float32, n)
	var tr Traffic
	// Pass 1: read K, write scores.
	for i, k := range keys {
		scores[i] = tensor.Dot(q, k) * invSqrt
	}
	tr.ElemsRead += int64(n * d)
	tr.ElemsWritten += int64(n)
	// Pass 2: softmax reads and rewrites the scores.
	tensor.Softmax(scores)
	tr.ElemsRead += int64(n)
	tr.ElemsWritten += int64(n)
	// Pass 3: read scores and V, accumulate output.
	out := make([]float32, d)
	for i, v := range vals {
		tensor.AXPY(out, scores[i], v)
	}
	tr.ElemsRead += int64(n) + int64(n*d)
	tr.ElemsWritten += int64(d)
	tr.Passes = 3
	return out, scores, tr
}

// onlineSoftmax is the streaming state of the FlashAttention recurrence: a
// running max, a running (rescaled) normaliser, and the unnormalised output
// accumulator. It lets the one-pass kernels (Flash, Paged) share the exact
// same arithmetic, so their outputs are bit-identical regardless of how the
// KV entries are chunked into pages.
type onlineSoftmax struct {
	out        []float32
	runningMax float32
	runningSum float32
}

// start initialises the recurrence over the caller-owned output buffer.
func startOnlineSoftmax(out []float32) onlineSoftmax {
	for j := range out {
		out[j] = 0
	}
	return onlineSoftmax{out: out, runningMax: float32(math.Inf(-1))}
}

// step folds one (score, value-vector) pair into the recurrence.
func (st *onlineSoftmax) step(s float32, v []float32) {
	newMax := st.runningMax
	if s > newMax {
		newMax = s
	}
	correction := tensor.Exp32(st.runningMax - newMax)
	p := tensor.Exp32(s - newMax)
	st.runningSum = st.runningSum*correction + p
	out := st.out
	for j := range out {
		out[j] = out[j]*correction + p*v[j]
	}
	st.runningMax = newMax
}

// finish applies the deferred normalisation.
func (st *onlineSoftmax) finish() {
	inv := 1 / st.runningSum
	for j := range st.out {
		st.out[j] *= inv
	}
}

// Flash computes the same attention output with a single fused pass using
// the online-softmax recurrence; K and V are each read exactly once and the
// score vector never exists in memory. Scores are NOT available — that is
// the point (the paper's incompatibility argument for score-based eviction).
func Flash(q []float32, keys, vals [][]float32) ([]float32, Traffic) {
	d := len(q)
	n := len(keys)
	out := make([]float32, d)
	var tr Traffic
	if n == 0 {
		return out, tr
	}
	invSqrt := float32(1 / math.Sqrt(float64(d)))
	st := startOnlineSoftmax(out)
	for i := 0; i < n; i++ {
		st.step(tensor.Dot(q, keys[i])*invSqrt, vals[i])
	}
	st.finish()
	tr.ElemsRead = int64(2 * n * d) // K and V once each
	tr.ElemsWritten = int64(d)
	tr.Passes = 1
	return out, tr
}

// FlashScores recovers the post-softmax attention scores after a Flash
// invocation by re-reading K and recomputing q·Kᵀ — the extra passes an
// eviction policy like H2O forces onto a FlashAttention engine.
func FlashScores(q []float32, keys [][]float32) ([]float32, Traffic) {
	d := len(q)
	n := len(keys)
	invSqrt := float32(1 / math.Sqrt(float64(d)))
	scores := make([]float32, n)
	for i, k := range keys {
		scores[i] = tensor.Dot(q, k) * invSqrt
	}
	tensor.Softmax(scores)
	return scores, Traffic{
		ElemsRead:    int64(n*d) + int64(n),
		ElemsWritten: int64(2 * n),
		Passes:       2, // re-read K, then softmax pass over scores
	}
}

// Paged computes Flash attention over a block-table layout: entries arrive
// as fixed-size pages, with the last page partially filled. Pages are
// streamed through the online-softmax recurrence one entry at a time — no
// concatenated copy of the sequence is ever materialised, which is the whole
// point of paging. Output is bit-identical to Flash on the concatenated
// sequence; traffic adds one block-table indirection read per page.
func Paged(q []float32, pages [][][]float32, pageVals [][][]float32) ([]float32, Traffic) {
	d := len(q)
	out := make([]float32, d)
	var tr Traffic
	n := 0
	for p := range pages {
		n += len(pages[p])
	}
	if n == 0 {
		tr.ElemsRead = int64(len(pages))
		return out, tr
	}
	invSqrt := float32(1 / math.Sqrt(float64(d)))
	st := startOnlineSoftmax(out)
	for p := range pages {
		pvals := pageVals[p]
		for i, k := range pages[p] {
			st.step(tensor.Dot(q, k)*invSqrt, pvals[i])
		}
	}
	st.finish()
	tr.ElemsRead = int64(2*n*d) + int64(len(pages)) // K and V once each + block-table entries
	tr.ElemsWritten = int64(d)
	tr.Passes = 1
	return out, tr
}
