// Package gpu provides hardware descriptors and roofline primitives for the
// analytical performance model. Peak numbers come from vendor datasheets;
// achieved efficiency is an engine property (internal/engine), not a
// hardware one.
package gpu

import "math"

// Hardware describes one accelerator.
type Hardware struct {
	Name string
	// MemBandwidth is peak device-memory bandwidth in bytes/second.
	MemBandwidth float64
	// FP16FLOPS is peak dense FP16 tensor throughput in FLOP/second.
	FP16FLOPS float64
	// VRAM is device memory in bytes.
	VRAM int64
	// InterconnectBW is per-direction NVLink bandwidth in bytes/second,
	// used by the tensor-parallel all-reduce model.
	InterconnectBW float64
	// InterconnectLatency is the per-collective base latency in seconds.
	InterconnectLatency float64
	// FullMeshNVLink: all-to-all NVLink/NVSwitch. Boxes without it (A6000
	// bridges link pairs only) fall back to PCIe for >2-GPU collectives,
	// which is what flattens tensor-parallel scaling at TP=4 in the
	// paper's Table 3.
	FullMeshNVLink bool
	// KernelLaunch is the host-side cost of launching one kernel, seconds.
	KernelLaunch float64
}

// A6000 is the NVIDIA RTX A6000 used for the paper's main experiments:
// 768 GB/s GDDR6, ~155 TFLOPS dense FP16 tensor, 48 GB.
var A6000 = Hardware{
	Name:                "a6000",
	MemBandwidth:        768e9,
	FP16FLOPS:           155e12,
	VRAM:                48 << 30,
	InterconnectBW:      112.5e9, // NVLink bridge
	InterconnectLatency: 9e-6,
	KernelLaunch:        8e-6,
}

// H800 is the NVIDIA H800 used for the LLaMA-70B experiments (Figure 2):
// 3.35 TB/s HBM3, ~990 TFLOPS dense FP16, 80 GB, 400 GB/s NVLink.
var H800 = Hardware{
	Name:                "h800",
	MemBandwidth:        3.35e12,
	FP16FLOPS:           990e12,
	VRAM:                80 << 30,
	InterconnectBW:      400e9,
	InterconnectLatency: 6e-6,
	FullMeshNVLink:      true,
	KernelLaunch:        6e-6,
}

// All returns every hardware descriptor — the resolution set of ByName.
func All() []Hardware { return []Hardware{A6000, H800} }

// ByName returns a hardware descriptor by name.
func ByName(name string) (Hardware, bool) {
	for _, h := range All() {
		if h.Name == name {
			return h, true
		}
	}
	return Hardware{}, false
}

// OpTime returns the roofline execution time of one kernel moving bytes of
// memory and executing flops of compute, at the given achieved efficiency
// fractions, plus the launch overhead. The kernel takes the max of its
// memory and compute phases (perfect overlap), which is the standard
// roofline assumption.
func (h Hardware) OpTime(flops, bytes, bwEff, computeEff float64) float64 {
	if bwEff <= 0 || computeEff <= 0 {
		panic("gpu: non-positive efficiency")
	}
	tMem := bytes / (h.MemBandwidth * bwEff)
	tCompute := flops / (h.FP16FLOPS * computeEff)
	return math.Max(tMem, tCompute) + h.KernelLaunch
}

// AllReduceTime returns the time of one ring all-reduce of nBytes across tp
// devices: 2(tp-1)/tp payload transfers plus base latency per step. On
// hardware without full-mesh NVLink, rings wider than two devices route
// through PCIe at a quarter of the link bandwidth and double the latency.
func (h Hardware) AllReduceTime(nBytes float64, tp int) float64 {
	if tp <= 1 {
		return 0
	}
	bw := h.InterconnectBW
	lat := h.InterconnectLatency
	if !h.FullMeshNVLink && tp > 2 {
		bw /= 4
		lat *= 2
	}
	steps := float64(2 * (tp - 1))
	perStep := nBytes / float64(tp) / bw
	return steps * (perStep + lat)
}
