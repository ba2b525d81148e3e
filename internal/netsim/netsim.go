// Package netsim models the constrained broadband connectivity of
// non-dedicated distributed systems (paper §I: uplinks under 1 Mb/s
// and downlinks under 15 Mb/s are typical for Internet hosts, versus
// 1 Gb/s in dedicated clusters; the emulation throttles links to
// 4–32 Mb/s).
//
// The model is intentionally simple and deterministic: each node has
// an uplink and a downlink of fixed capacity, each NIC serializes its
// transfers (a busy-until cursor), and a transfer of S bytes over a
// path with bottleneck bandwidth B takes S/B seconds once both NICs
// are free. This captures the two effects the paper's results hinge
// on — migration cost proportional to block size / bandwidth, and
// transfer queueing on hot nodes — without modelling TCP dynamics.
package netsim

import (
	"errors"
	"fmt"
	"math"
)

// BytesPerMegabit converts Mb/s link rates to bytes/second.
const BytesPerMegabit = 1e6 / 8

// Config describes a homogeneous network.
type Config struct {
	// UplinkBps and DownlinkBps are per-node link capacities in
	// bytes/second. The emulation's symmetric "8 Mb/s" corresponds to
	// Uplink = Downlink = 1e6 bytes/s.
	UplinkBps   float64
	DownlinkBps float64
}

// FromMegabits builds a symmetric configuration from a Mb/s figure,
// the unit the paper sweeps (4–32 Mb/s).
func FromMegabits(mbps float64) Config {
	bps := mbps * BytesPerMegabit
	return Config{UplinkBps: bps, DownlinkBps: bps}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.UplinkBps <= 0 || c.DownlinkBps <= 0 ||
		math.IsNaN(c.UplinkBps) || math.IsNaN(c.DownlinkBps) {
		return fmt.Errorf("netsim: link rates must be positive, got up=%g down=%g",
			c.UplinkBps, c.DownlinkBps)
	}
	return nil
}

// Network tracks per-node NIC availability under serialized
// transfers. It is driven by a virtual clock owned by the caller (the
// discrete-event simulator).
type Network struct {
	cfg      Config
	upFree   []float64 // uplink busy-until per node
	downFree []float64 // downlink busy-until per node
}

// Errors.
var (
	ErrBadNode = errors.New("netsim: node index out of range")
	ErrBadSize = errors.New("netsim: transfer size must be positive")
)

// New builds a network for n nodes.
func New(cfg Config, n int) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, errors.New("netsim: need at least one node")
	}
	return &Network{
		cfg:      cfg,
		upFree:   make([]float64, n),
		downFree: make([]float64, n),
	}, nil
}

// Len returns the node count.
func (nw *Network) Len() int { return len(nw.upFree) }

// TransferTime returns how long a transfer of size bytes takes once
// started (bottleneck of the two NICs), ignoring queueing.
func (nw *Network) TransferTime(size float64) float64 {
	bw := math.Min(nw.cfg.UplinkBps, nw.cfg.DownlinkBps)
	return size / bw
}

// Transfer reserves the src uplink and dst downlink for a transfer of
// size bytes requested at time now. It returns the start time (after
// NIC queueing) and the completion time, and advances both NICs'
// busy-until cursors. src == dst (local copy) completes instantly.
func (nw *Network) Transfer(now float64, src, dst int, size float64) (start, end float64, err error) {
	if src < 0 || src >= nw.Len() || dst < 0 || dst >= nw.Len() {
		return 0, 0, fmt.Errorf("%w: src=%d dst=%d n=%d", ErrBadNode, src, dst, nw.Len())
	}
	if size <= 0 || math.IsNaN(size) {
		return 0, 0, fmt.Errorf("%w: %g", ErrBadSize, size)
	}
	if src == dst {
		return now, now, nil
	}
	start = math.Max(now, math.Max(nw.upFree[src], nw.downFree[dst]))
	end = start + nw.TransferTime(size)
	nw.upFree[src] = end
	nw.downFree[dst] = end
	return start, end, nil
}

// EarliestStart previews when a transfer could begin without
// reserving anything.
func (nw *Network) EarliestStart(now float64, src, dst int) (float64, error) {
	if src < 0 || src >= nw.Len() || dst < 0 || dst >= nw.Len() {
		return 0, fmt.Errorf("%w: src=%d dst=%d n=%d", ErrBadNode, src, dst, nw.Len())
	}
	return math.Max(now, math.Max(nw.upFree[src], nw.downFree[dst])), nil
}

// UplinkFree returns the instant node i's uplink finishes the
// transfers reserved on it so far (zero when it never carried one).
func (nw *Network) UplinkFree(i int) float64 { return nw.upFree[i] }

// DownlinkFree is UplinkFree for the node's downlink.
func (nw *Network) DownlinkFree(i int) float64 { return nw.downFree[i] }
