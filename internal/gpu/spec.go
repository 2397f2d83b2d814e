// Package gpu models GPU hardware for LLM serving simulation.
//
// A Device is a logical tensor-parallel group of identical physical GPUs
// executing in lock-step (the way a TP group behaves in SGLang/vLLM).
// Compute is spatially divisible into Partitions — the analogue of CUDA
// Green Contexts: a stream bound to a subset of SMs on every GPU in the
// group. Partitions execute kernels concurrently and contend for the
// group's HBM bandwidth, which the device arbitrates with a max-min
// water-filling allocator. Host-side kernel launches serialize on a
// single launcher thread, reproducing the launch-latency bubbles the
// paper's bubble-less engine exists to remove.
package gpu

import "muxwise/internal/sim"

// Spec describes one physical GPU model. All rates are per GPU.
type Spec struct {
	Name string

	// SMs is the number of streaming multiprocessors. Partition sizes
	// are expressed in SMs per GPU.
	SMs int

	// TensorFLOPS is peak dense bf16 throughput in FLOP/s.
	TensorFLOPS float64

	// HBMBandwidth is peak memory bandwidth in bytes/s.
	HBMBandwidth float64

	// HBMCapacity is device memory in bytes.
	HBMCapacity int64

	// NVLinkBandwidth is the per-GPU interconnect bandwidth in bytes/s
	// used for tensor-parallel collectives and KV migration.
	NVLinkBandwidth float64

	// PCIeBandwidth is the per-GPU host-path bandwidth in bytes/s, the
	// fallback link class for KV streams that cross hardware shapes
	// (no shared NVLink domain). Zero selects a PCIe 3.0 x16 floor.
	PCIeBandwidth float64

	// BWSaturationFrac is the fraction of SMs a kernel needs before it
	// can absorb the full HBM bandwidth. A kernel on fewer SMs is capped
	// at smFraction/BWSaturationFrac of peak bandwidth. Real GPUs need
	// roughly 40–50% of SMs issuing loads to saturate HBM.
	BWSaturationFrac float64

	// MFUPrefill and MFUDecode are the peak model FLOPs utilization for
	// large-matmul (prefill) and batched-GEMV (decode) kernels.
	MFUPrefill float64
	MFUDecode  float64

	// SatTokensPerSM controls how many new tokens per allocated SM a
	// prefill-style kernel needs before its efficiency reaches half of
	// MFUPrefill: eff = tokens / (tokens + SatTokensPerSM·sms).
	SatTokensPerSM float64

	// GraphLaunch is the host latency of launching a captured CUDA
	// graph (a decode iteration, or one prefill layer graph piece).
	GraphLaunch sim.Time

	// LayerLaunch is the host latency of launching one prefill layer as
	// a piecewise CUDA graph. A full-phase launch costs Layers·LayerLaunch
	// on the host, matching the paper's ~10 ms for Llama-70B (80 layers).
	LayerLaunch sim.Time

	// ReconfigSync is the cost of re-binding a partition to a different
	// SM set (a green-context stream synchronization, order of µs).
	ReconfigSync sim.Time

	// PartitionGranularity is the SM allocation step (16 on Hopper due
	// to thread block clusters; the paper uses 16 everywhere).
	PartitionGranularity int

	// MinPartition is the smallest legal partition in SMs. Kernels on
	// H100 and newer need at least 16 SMs (thread block clusters).
	MinPartition int
}

// A100 returns the spec of an NVIDIA A100-SXM4-80GB.
func A100() Spec {
	return Spec{
		Name:                 "A100-80G",
		SMs:                  108,
		TensorFLOPS:          312e12,
		HBMBandwidth:         2.039e12,
		HBMCapacity:          80 << 30,
		NVLinkBandwidth:      600e9,
		PCIeBandwidth:        32e9,
		BWSaturationFrac:     0.45,
		MFUPrefill:           0.50,
		MFUDecode:            0.30,
		SatTokensPerSM:       0.60,
		GraphLaunch:          500 * sim.Microsecond,
		LayerLaunch:          130 * sim.Microsecond,
		ReconfigSync:         10 * sim.Microsecond,
		PartitionGranularity: 16,
		MinPartition:         1,
	}
}

// H100 returns the spec of an NVIDIA H100-SXM5-80GB.
func H100() Spec {
	return Spec{
		Name:                 "H100-80G",
		SMs:                  132,
		TensorFLOPS:          989e12,
		HBMBandwidth:         3.35e12,
		HBMCapacity:          80 << 30,
		NVLinkBandwidth:      900e9,
		PCIeBandwidth:        64e9,
		BWSaturationFrac:     0.45,
		MFUPrefill:           0.48,
		MFUDecode:            0.28,
		SatTokensPerSM:       0.85,
		GraphLaunch:          450 * sim.Microsecond,
		LayerLaunch:          120 * sim.Microsecond,
		ReconfigSync:         10 * sim.Microsecond,
		PartitionGranularity: 16,
		MinPartition:         16,
	}
}

// H200 returns the spec of an NVIDIA H200-SXM5-141GB.
func H200() Spec {
	s := H100()
	s.Name = "H200-141G"
	s.HBMBandwidth = 4.8e12
	s.HBMCapacity = 141 << 30
	return s
}

// B200 returns the spec of an NVIDIA B200-SXM6-180GB. Blackwell is a
// dual-die package; the simulator models the package as one GPU at
// aggregate datasheet rates (2.25 PFLOP/s dense bf16, 7.7 TB/s HBM3e)
// with an effective SM count that keeps the 16-SM partition step of
// the Hopper green-context model. There is no fitted-plane profile for
// this part — it is reachable only through the roofline cost model.
func B200() Spec {
	return Spec{
		Name:                 "B200-180G",
		SMs:                  148,
		TensorFLOPS:          2.25e15,
		HBMBandwidth:         7.7e12,
		HBMCapacity:          180 << 30,
		NVLinkBandwidth:      1.8e12,
		PCIeBandwidth:        128e9,
		BWSaturationFrac:     0.45,
		MFUPrefill:           0.45,
		MFUDecode:            0.25,
		SatTokensPerSM:       1.10,
		GraphLaunch:          450 * sim.Microsecond,
		LayerLaunch:          120 * sim.Microsecond,
		ReconfigSync:         10 * sim.Microsecond,
		PartitionGranularity: 16,
		MinPartition:         16,
	}
}

// SpecByName looks up a built-in spec ("A100", "H100", "H200", "B200").
// It returns false for unknown names.
func SpecByName(name string) (Spec, bool) {
	switch name {
	case "A100", "A100-80G", "a100":
		return A100(), true
	case "H100", "H100-80G", "h100":
		return H100(), true
	case "H200", "H200-141G", "h200":
		return H200(), true
	case "B200", "B200-180G", "b200":
		return B200(), true
	}
	return Spec{}, false
}

// Catalog returns every built-in spec in generation order. docs/hardware.md
// is generated from this list; adding a spec here (plus a SpecByName case)
// is the whole recipe for new hardware under the roofline cost model.
func Catalog() []Spec {
	return []Spec{A100(), H100(), H200(), B200()}
}

// PrefillMFU is the fraction of peak FLOPS a prefill kernel of tokens new
// tokens reaches on SM fraction frac of each of tp GPUs, given the MFU it
// would reach saturated: mfu·tok/(tok + SatTokensPerSM·sms), counting at
// least one token. Every prefill rate — the simulated device, the
// roofline cost model, the fitted estimator's regime labels — goes
// through this one curve.
func (s Spec) PrefillMFU(mfu float64, tokens int, frac float64, tp int) float64 {
	sms := frac * float64(s.SMs) * float64(tp)
	tok := max(1, float64(tokens))
	return mfu * tok / (tok + s.SatTokensPerSM*sms)
}

// BandwidthCap is the share of HBM bandwidth bw a kernel on SM fraction
// frac can absorb: a kernel saturates bandwidth once it holds
// BWSaturationFrac of the SMs.
func (s Spec) BandwidthCap(frac, bw float64) float64 {
	return min(bw, frac/s.BWSaturationFrac*bw)
}

// PartitionSizes returns the valid decode-partition SM counts for this
// spec, stepping by PartitionGranularity and starting at the remainder
// that keeps every configuration's complement a multiple of the step.
// For A100 (108 SMs, step 16) this is [12 28 44 60 76 92]; for H100/H200
// (132 SMs) it is [20 36 52 68 84 100 116], matching the paper's 6 and 7
// configurations.
func (s Spec) PartitionSizes() []int {
	step := s.PartitionGranularity
	if step <= 0 {
		step = 16
	}
	first := s.SMs % step
	if first == 0 {
		first = step
	}
	for first < s.MinPartition {
		first += step
	}
	var sizes []int
	for sm := first; sm < s.SMs; sm += step {
		sizes = append(sizes, sm)
	}
	return sizes
}
