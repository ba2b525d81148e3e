package main

import (
	"strings"
	"sync/atomic"
	"time"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
)

// countingTransport is a svc.TransportFaults that never fails and
// never delays a message; it counts the messages by which kinds of
// endpoint they run between. The traced run installs it to read exact
// message counts per operation from outside the service.
type countingTransport struct {
	shellNN, nnDN, dnDN, dnNN atomic.Int64
}

func endpointKind(name string) byte {
	switch {
	case strings.HasPrefix(name, "datanode-"):
		return 'd'
	case name == "namenode":
		return 'n'
	default:
		return 's'
	}
}

func (c *countingTransport) FailMessage(from, to string) error {
	switch string([]byte{endpointKind(from), endpointKind(to)}) {
	case "sn":
		c.shellNN.Add(1)
	case "nd":
		c.nnDN.Add(1)
	case "dd":
		c.dnDN.Add(1)
	case "dn":
		c.dnNN.Add(1)
	}
	return nil
}

func (c *countingTransport) MessageDelay(from, to string) time.Duration { return 0 }

// transportCounts is a plain copy of the counters.
type transportCounts struct{ shellNN, nnDN, dnDN, dnNN int64 }

func (c *countingTransport) snapshot() transportCounts {
	return transportCounts{c.shellNN.Load(), c.nnDN.Load(), c.dnDN.Load(), c.dnNN.Load()}
}

// countingStore is a dfs.FaultInjector that fails nothing and corrupts
// nothing; it counts the store operations that reach the DataNodes.
type countingStore struct {
	puts, gets, deletes atomic.Int64
}

func (c *countingStore) FailOp(node cluster.NodeID, op dfs.Op, block dfs.BlockID) error {
	switch op {
	case dfs.OpPut:
		c.puts.Add(1)
	case dfs.OpGet:
		c.gets.Add(1)
	case dfs.OpDelete:
		c.deletes.Add(1)
	}
	return nil
}

func (c *countingStore) CorruptRead(node cluster.NodeID, block dfs.BlockID, data []byte) []byte {
	return data
}
