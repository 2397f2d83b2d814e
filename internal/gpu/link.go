package gpu

// LinkClass names the interconnect a KV stream travels over. Replicas in
// the same hardware shape are assumed to sit in one NVLink domain (an
// NVSwitch-connected node or rail-optimised pod); crossing shapes — an
// A100 replica handing KV to an H100 replica — falls back to the PCIe /
// host path, the way DistServe's placement model distinguishes
// intra-node NVLink transfers from cross-node ones.
type LinkClass uint8

const (
	// LinkNVLink is the intra-domain fast path (NVLink/NVSwitch).
	LinkNVLink LinkClass = iota
	// LinkPCIe is the cross-domain fallback path (PCIe + host memory).
	LinkPCIe
)

// String renders the link class.
func (c LinkClass) String() string {
	switch c {
	case LinkNVLink:
		return "nvlink"
	case LinkPCIe:
		return "pcie"
	}
	return "link(?)"
}

// Link is one interconnect path between two replicas: its class and the
// effective bandwidth in bytes/s a KV stream can sustain on it.
type Link struct {
	Class     LinkClass
	Bandwidth float64
}

// defaultPCIeBandwidth stands in for specs that predate the PCIe field
// (PCIe 3.0 x16, the conservative floor).
const defaultPCIeBandwidth = 16e9

// pcie returns the spec's PCIe bandwidth, defaulted.
func (s *Spec) pcie() float64 {
	if s.PCIeBandwidth > 0 {
		return s.PCIeBandwidth
	}
	return defaultPCIeBandwidth
}

// LinkBetween classifies the interconnect between two replica hardware
// shapes and returns the stream bandwidth: same shape rides NVLink at
// the shape's per-GPU NVLink rate, mixed shapes fall back to PCIe at
// the slower endpoint's rate. A transfer is paced by its narrowest hop,
// so both classes take the min of the two endpoints.
func LinkBetween(a, b Spec) Link {
	if a.Name == b.Name && a.NVLinkBandwidth > 0 && b.NVLinkBandwidth > 0 {
		bw := a.NVLinkBandwidth
		if b.NVLinkBandwidth < bw {
			bw = b.NVLinkBandwidth
		}
		return Link{Class: LinkNVLink, Bandwidth: bw}
	}
	bw := a.pcie()
	if b.pcie() < bw {
		bw = b.pcie()
	}
	return Link{Class: LinkPCIe, Bandwidth: bw}
}
