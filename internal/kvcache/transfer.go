package kvcache

import (
	"muxwise/internal/gpu"
	"muxwise/internal/sim"
)

// KV migration cost model. A drained or retired replica streams the KV
// of its in-flight sessions to the replica their traffic re-routes to,
// instead of letting the sessions repay a full re-prefill there. The
// stream is paced by the interconnect between the two replicas: bytes =
// tokens × per-token KV size (from the model architecture), time =
// bytes / link bandwidth + a fixed per-session handoff latency
// (connection setup, block-table exchange, first-layer warmup). This is
// the transfer-vs-recompute tradeoff DistServe's placement algorithm
// optimises around; modeling it honestly is what lets a fleet frontier
// compare migration-enabled drains against the re-prefill baseline.

// DefaultHandoff is the fixed per-session handoff latency charged on
// every KV stream. Connection setup plus exchanging the paged block
// table sits in the few-millisecond range on NCCL/NIXL-style
// transports.
const DefaultHandoff = 8 * sim.Millisecond

// TransferBytes returns the wire size of a KV stream covering tokens of
// context at bytesPerToken (model.Arch.KVBytesPerToken for the serving
// architecture).
func TransferBytes(tokens int64, bytesPerToken float64) float64 {
	if tokens <= 0 || bytesPerToken <= 0 {
		return 0
	}
	return float64(tokens) * bytesPerToken
}

// TransferTime models streaming tokens of KV across the link:
// DefaultHandoff plus bytes over bandwidth. A link without bandwidth
// cannot stream (the caller should have fallen back to re-prefill), so
// it degenerates to the handoff alone.
func TransferTime(tokens int64, bytesPerToken float64, link gpu.Link) sim.Time {
	bytes := TransferBytes(tokens, bytesPerToken)
	if bytes <= 0 || link.Bandwidth <= 0 {
		return DefaultHandoff
	}
	return DefaultHandoff + sim.FromSeconds(bytes/link.Bandwidth)
}
