package svc

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
)

// heartbeatParams is the wire form of one heartbeat. Observation
// fields are cumulative totals since the DataNode started, not
// deltas: a lost beat loses nothing, because the next beat carries
// everything, and the NameNode folds only the difference from the
// last total it saw. Seq orders beats so a delayed duplicate cannot
// rewind the estimator.
type heartbeatParams struct {
	Node          cluster.NodeID `json:"node"`
	Epoch         uint64         `json:"epoch"` // DataNode incarnation marker
	Seq           uint64         `json:"seq"`
	Uptime        float64        `json:"uptime"`        // cumulative observed uptime, seconds
	Interruptions int64          `json:"interruptions"` // cumulative interruption count
	Downtime      float64        `json:"downtime"`      // cumulative downtime, seconds
}

// epochCounter disambiguates DataNode incarnations created within the
// same wall-clock instant (in-process restarts in tests).
var epochCounter atomic.Uint64

// newEpoch mints an incarnation marker: wall-clock based so a
// restarted process (fresh counter) still differs from its previous
// life, plus a counter so same-process restarts differ too.
func newEpoch() uint64 {
	return uint64(time.Now().UnixNano())<<8 | (epochCounter.Add(1) & 0xff)
}

// endpointName returns the transport endpoint name for a DataNode,
// shared by the server side, the NameNode's proxies, and the chaos
// partition keys.
func endpointName(id cluster.NodeID) string {
	return fmt.Sprintf("datanode-%d", id)
}

// DataNodeServer is one networked DataNode: a dfs.DataNode behind a
// frame server, plus the availability recorder that accumulates the
// node's own interruption observations and ships them to the NameNode
// as heartbeats — the paper's "slave daemons report availability
// traces" loop.
type DataNodeServer struct {
	id     cluster.NodeID
	dn     *dfs.DataNode
	srv    *Server
	faults TransportFaults
	nn     *peerConn

	// relays are the stream connections this node parks toward the
	// next hops of the pipelines it relays.
	relays streamPool

	epoch uint64 // this incarnation's marker, fixed at construction

	mu            sync.Mutex
	seq           uint64
	uptime        float64
	interruptions int64
	downtime      float64

	loopStop chan struct{}
	loopDone chan struct{}
}

// NewDataNodeServer creates a DataNode service for node id. faults
// may be nil. Call ConnectNameNode before heartbeating (the NameNode
// binds after its DataNodes, so the address arrives late).
func NewDataNodeServer(id cluster.NodeID, faults TransportFaults) *DataNodeServer {
	d := &DataNodeServer{
		id:     id,
		dn:     dfs.NewDataNode(id),
		faults: faults,
		epoch:  newEpoch(),
	}
	d.srv = NewServer(endpointName(id), faults, d.methods())
	d.srv.SetDataHandler(d.serveData)
	return d
}

// ConnectNameNode points the heartbeat channel at the NameNode. The
// connection itself is established lazily on the first beat. Calling
// it again (a restarted NameNode at a new address) closes the old
// channel and redials the new one; an in-flight heartbeat on the old
// channel just fails transiently, which loses nothing.
func (d *DataNodeServer) ConnectNameNode(nnAddr string) {
	next := newPeerConn(nnAddr, endpointName(d.id), "namenode", d.faults)
	d.mu.Lock()
	old := d.nn
	d.nn = next
	d.mu.Unlock()
	if old != nil {
		old.close()
	}
}

// peer returns the current NameNode channel (nil before the first
// ConnectNameNode).
func (d *DataNodeServer) peer() *peerConn {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.nn
}

// SetAdmission installs admission control on the block service: calls
// and streams compete for the same budget. Call before Listen.
func (d *DataNodeServer) SetAdmission(cfg AdmissionConfig) { d.srv.SetAdmission(cfg) }

// Admission exposes the controller (nil when disabled).
func (d *DataNodeServer) Admission() *admission { return d.srv.Admission() }

// Listen binds the block service (use "127.0.0.1:0" for tests).
func (d *DataNodeServer) Listen(addr string) error {
	return d.srv.Listen(addr)
}

// Addr returns the bound block-service address.
func (d *DataNodeServer) Addr() string { return d.srv.Addr() }

// Node exposes the underlying dfs.DataNode (fault injection, direct
// inspection in tests).
func (d *DataNodeServer) Node() *dfs.DataNode { return d.dn }

// methods declares the DataNode's control RPCs. Block bytes do not come
// this way: they move on streams (pipeline.go).
func (d *DataNodeServer) methods() methodTable {
	return methodTable{
		"dn.delete": {classBackground, typed(func(_ context.Context, p getParams) (any, error) {
			d.dn.Delete(p.Block)
			return struct{}{}, nil
		})},
		"dn.stored": {classBackground, typed(func(_ context.Context, p getParams) (any, error) {
			size, sum, ok := d.dn.StoredSum(p.Block)
			return storedResult{Size: size, CRC32: sum, OK: ok}, nil
		})},
		"dn.blocks": {classBackground, bare(func(context.Context) (any, error) {
			return blocksResult{Blocks: d.dn.StoredBlocks()}, nil
		})},
	}
}

// ObserveUptime accrues d seconds of observed uptime. The chaos
// engine's observer routing calls this in virtual time; a wall-clock
// heartbeat loop calls it with real elapsed time.
func (d *DataNodeServer) ObserveUptime(sec float64) error {
	if sec < 0 {
		return fmt.Errorf("svc: negative uptime %v: %w", sec, ErrBadObservation)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.uptime += sec
	return nil
}

// ObserveInterruption accrues one interruption with the given
// downtime in seconds.
func (d *DataNodeServer) ObserveInterruption(downtimeSec float64) error {
	if downtimeSec < 0 {
		return fmt.Errorf("svc: negative downtime %v: %w", downtimeSec, ErrBadObservation)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.interruptions++
	d.downtime += downtimeSec
	return nil
}

// FlushHeartbeat sends one heartbeat carrying the cumulative
// observation totals to the NameNode.
func (d *DataNodeServer) FlushHeartbeat(ctx context.Context) error {
	d.mu.Lock()
	nn := d.nn
	if nn == nil {
		d.mu.Unlock()
		return fmt.Errorf("svc: heartbeat from %s: namenode not connected: %w", endpointName(d.id), ErrConnClosed)
	}
	d.seq++
	hb := heartbeatParams{
		Node:          d.id,
		Epoch:         d.epoch,
		Seq:           d.seq,
		Uptime:        d.uptime,
		Interruptions: d.interruptions,
		Downtime:      d.downtime,
	}
	d.mu.Unlock()
	if err := nn.call(ctx, "nn.heartbeat", hb, nil); err != nil {
		return fmt.Errorf("svc: heartbeat from %s: %w", endpointName(d.id), err)
	}
	return nil
}

// StartHeartbeats begins a wall-clock heartbeat loop: each tick records
// the real elapsed time as observed uptime and sends one heartbeat.
// Safe to call once.
func (d *DataNodeServer) StartHeartbeats(interval time.Duration) {
	// The goroutines hold the channels themselves: Stop clears
	// d.loopStop once the loop is done, which may be before the first
	// goroutine has even run.
	stop, done := make(chan struct{}), make(chan struct{})
	d.loopStop, d.loopDone = stop, done
	loopCtx, loopCancel := context.WithCancel(context.Background())
	go func() {
		// Stop closes loopStop; cancelling the loop context unblocks a
		// beat that is mid-flight against an unresponsive NameNode, so
		// Stop never waits out the per-beat timeout.
		<-stop
		loopCancel()
	}()
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		last := time.Now()
		for {
			select {
			case <-stop:
				return
			case now := <-t.C:
				_ = d.ObserveUptime(now.Sub(last).Seconds())
				last = now
				ctx, cancel := context.WithTimeout(loopCtx, interval)
				_ = d.FlushHeartbeat(ctx) // transient loss is the design point: totals carry over
				cancel()
			}
		}
	}()
}

// Stop gracefully shuts the DataNode down: the heartbeat loop halts,
// a final heartbeat flushes the last observations (best-effort,
// bounded by ctx), in-flight block RPCs and streams drain, and
// connections close — the served ones and the relays' parked ones.
func (d *DataNodeServer) Stop(ctx context.Context) error {
	if d.loopStop != nil {
		close(d.loopStop)
		<-d.loopDone
		d.loopStop = nil
	}
	var flushErr error
	if d.peer() != nil {
		flushErr = d.FlushHeartbeat(ctx)
	}
	err := d.srv.Shutdown(ctx)
	d.relays.close()
	if nn := d.peer(); nn != nil {
		nn.close()
	}
	if err != nil {
		return err
	}
	if flushErr != nil && ctx.Err() != nil {
		return fmt.Errorf("svc: stop %s: %w", endpointName(d.id), ctx.Err())
	}
	return nil
}
