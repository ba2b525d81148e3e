package svc

import (
	"context"
	"fmt"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/stats"
)

// LocalCluster is a full networked ADAPT cluster on loopback: one
// NameNode service and one DataNode service per cluster node, all on
// real TCP sockets bound to 127.0.0.1:0. It exists for tests, the CLI
// demo, and CI smoke runs — the topology is real (frames, deadlines,
// partitions all cross actual sockets), only the machines are
// imaginary.
//
// LocalCluster satisfies the chaos engine's Target contract
// (structurally — chaos does not know svc): SetNodeUp interrupts a
// DataNode host and brings it back. It is not an Observer: the
// NameNode learns every (λ, μ) it places by from the heartbeats it
// receives, and from the silences between them.
type LocalCluster struct {
	NN     *NameNodeServer
	DNs    []*DataNodeServer
	faults TransportFaults
}

// StartLocalCluster boots one DataNode service per node of c plus the
// NameNode service, all on loopback. faults may be nil; when it is a
// *chaos.NetFaults shared with test code, partitions and drops apply
// to every connection in the cluster.
func StartLocalCluster(c *cluster.Cluster, g *stats.RNG, faults TransportFaults, cfg NameNodeConfig) (*LocalCluster, error) {
	lc := &LocalCluster{faults: faults}
	dnAddrs := make([]string, c.Len())
	for i := 0; i < c.Len(); i++ {
		dn := NewDataNodeServer(cluster.NodeID(i), faults)
		if err := dn.Listen("127.0.0.1:0"); err != nil {
			lc.teardown()
			return nil, err
		}
		lc.DNs = append(lc.DNs, dn)
		dnAddrs[i] = dn.Addr()
	}
	nn, err := NewNameNodeServer(c, dnAddrs, g, faults, cfg)
	if err != nil {
		lc.teardown()
		return nil, err
	}
	if err := nn.Listen("127.0.0.1:0"); err != nil {
		lc.teardown()
		return nil, err
	}
	lc.NN = nn
	for _, dn := range lc.DNs {
		dn.ConnectNameNode(nn.Addr())
	}
	return lc, nil
}

// teardown force-closes whatever has started (boot failure path).
func (lc *LocalCluster) teardown() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already-cancelled: close immediately, no drain
	for _, dn := range lc.DNs {
		_ = dn.srv.Shutdown(ctx)
	}
	if lc.NN != nil {
		_ = lc.NN.Shutdown(ctx)
	}
}

// Client returns a shell client for the cluster's NameNode under the
// given endpoint name.
func (lc *LocalCluster) Client(name string) *Client {
	return Dial(lc.NN.Addr(), name, lc.faults)
}

// DataNode returns the service for one node id.
func (lc *LocalCluster) DataNode(id cluster.NodeID) (*DataNodeServer, error) {
	if int(id) < 0 || int(id) >= len(lc.DNs) {
		return nil, fmt.Errorf("%w: node %d", ErrUnknownDataNode, id)
	}
	return lc.DNs[id], nil
}

// SetNodeUp interrupts one DataNode host or brings it back — the
// chaos engine's churn hook and the paper's §III interruption. Down,
// the node refuses block requests and sends no heartbeats. Up again,
// it is a new incarnation (new epoch, sequence reset) that kept its
// blocks: the work is lost, the disk is not. The NameNode is not
// told: it finds out the way a real master does, by RPCs failing,
// heartbeats stopping, and a new epoch arriving.
func (lc *LocalCluster) SetNodeUp(id cluster.NodeID, up bool) error {
	dn, err := lc.DataNode(id)
	if err != nil {
		return err
	}
	if up && !dn.Node().Up() {
		dn.restart()
	}
	dn.Node().SetUp(up)
	return nil
}

// FlushHeartbeats makes every live DataNode send one heartbeat now —
// deterministic test alternative to the wall-clock loops.
func (lc *LocalCluster) FlushHeartbeats(ctx context.Context) error {
	for _, dn := range lc.DNs {
		if err := dn.FlushHeartbeat(ctx); err != nil {
			return err
		}
	}
	return nil
}

// CrashNameNode kills the master the way SIGKILL would: no drain, no
// final WAL sync, connections dropped mid-frame. The DataNodes keep
// running (and heartbeating into the void) until RestartNameNode
// gives them a new master.
func (lc *LocalCluster) CrashNameNode() {
	if lc.NN != nil {
		lc.NN.Crash()
	}
}

// RestartNameNode boots a fresh NameNode incarnation — recovering the
// namespace from cfg.WALDir when set — on a new loopback port and
// repoints every DataNode's heartbeat channel at it. The caller
// supplies the same cluster shape and an RNG. No heartbeat or
// estimator state carries over: each DataNode's first beat sets the
// new incarnation's baseline, so no observed silence spans the
// restart, and the dead incarnation published its learned (λ, μ) as
// snapshots of its own and never wrote into c, so the new one starts
// from c and relearns from what it observes itself.
func (lc *LocalCluster) RestartNameNode(c *cluster.Cluster, g *stats.RNG, cfg NameNodeConfig) error {
	dnAddrs := make([]string, len(lc.DNs))
	for i, dn := range lc.DNs {
		dnAddrs[i] = dn.Addr()
	}
	nn, err := NewNameNodeServer(c, dnAddrs, g, lc.faults, cfg)
	if err != nil {
		return err
	}
	if err := nn.Listen("127.0.0.1:0"); err != nil {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_ = nn.Shutdown(ctx)
		return err
	}
	lc.NN = nn
	for _, dn := range lc.DNs {
		dn.ConnectNameNode(nn.Addr())
	}
	return nil
}

// Close shuts the whole cluster down gracefully, DataNodes first, then
// the NameNode.
func (lc *LocalCluster) Close(ctx context.Context) error {
	var firstErr error
	for _, dn := range lc.DNs {
		if err := dn.Stop(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if lc.NN != nil {
		if err := lc.NN.Shutdown(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Engine exposes the NameNode's dfs engine for test assertions.
func (lc *LocalCluster) Engine() *dfs.NameNode { return lc.NN.Engine() }
