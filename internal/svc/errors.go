// Package svc is the networked ADAPT cluster (paper §IV/§V brought to
// real sockets): a NameNode service holding metadata, the heartbeat
// collector, and the performance predictor; DataNode services storing
// block replicas; and a shell-style client — all of it over one frame
// format on TCP (wire.go) and one kind of connection, which carries
// successive exchanges, a call or a stream, one at a time: small
// decisions as calls, block bytes as streams of chunks, stdlib only.
//
// The services are thin transports over the existing internal/dfs
// engine, split the way HDFS and the paper's prototype split it: the
// NameNode decides (dfs.NameNode: placement draws, block ids, leases,
// the journaled publish), and whoever holds the bytes moves them
// (dfs.BlockIO over remote BlockStore proxies: the client for its own
// puts and gets, the NameNode for cp, the live adapt rebalance and
// repair). Replica failover, checksum verification and
// crash-consistent redistribution are exactly the code paths the
// in-process tests already certify. DataNodes send periodic heartbeats
// that say only that they are alive; the NameNode counts restarts and
// long silences as interruptions, folds them into per-node (λ, μ)
// estimates and refreshes the 1/E[T] placement weights, closing the
// paper's predictor loop over the wire.
//
// Every RPC takes a context deadline, and both ends of the transport
// consult a pluggable TransportFaults hook so a chaos engine
// (chaos.NetFaults) can drop, delay, and partition connections.
package svc

import (
	"context"
	"errors"

	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/shard"
)

// Service-layer sentinels. Wire errors arriving from a peer are
// rehydrated so errors.Is matches these and the dfs sentinels across
// the network.
var (
	// ErrStaleHeartbeat marks a heartbeat whose sequence number is not
	// newer than the last one folded for that node's incarnation: a
	// delayed or replayed beat that must not count as a fresh one.
	ErrStaleHeartbeat = errors.New("svc: stale heartbeat")
	// ErrUnknownMethod marks an RPC the peer does not implement.
	ErrUnknownMethod = errors.New("svc: unknown method")
	// ErrShuttingDown marks requests rejected because the server is
	// draining; in-flight requests still complete.
	ErrShuttingDown = errors.New("svc: server shutting down")
	// ErrUnknownDataNode marks a heartbeat or block RPC naming a node
	// id outside the cluster.
	ErrUnknownDataNode = errors.New("svc: unknown datanode")
	// ErrConnClosed marks a call with no connection to go on: a
	// heartbeat sent before its DataNode knows the NameNode's address.
	ErrConnClosed = errors.New("svc: connection closed")
	// ErrFrameTooLarge marks a frame exceeding its type's bound —
	// MaxControlFrame for a call or a reply, MaxChunkPayload for the
	// rest — in either direction; a receiver that meets one tears the
	// connection down (framing is lost).
	ErrFrameTooLarge = errors.New("svc: frame too large")
	// ErrBadFrame marks an undecodable frame; the connection is torn
	// down.
	ErrBadFrame = errors.New("svc: bad frame")
)

// errorCode maps error chains to stable wire codes and back, so
// errors.Is works across the network: a dfs.ErrFileNotFound raised in
// the NameNode's engine arrives at the shell client still matching
// dfs.ErrFileNotFound.
type errorCode struct {
	code     string
	sentinel error
}

// wireCodes is consulted in order at encode time (first errors.Is
// match wins) and by exact code at decode time.
var wireCodes = []errorCode{
	{"stale_heartbeat", ErrStaleHeartbeat},
	{"unknown_method", ErrUnknownMethod},
	{"shutting_down", ErrShuttingDown},
	{"unknown_datanode", ErrUnknownDataNode},
	{"conn_closed", ErrConnClosed},
	{"bad_frame", ErrBadFrame},
	{"frame_too_large", ErrFrameTooLarge},

	// The dfs taxonomy crosses the wire so shell clients and the
	// NameNode's remote stores classify failures exactly like
	// in-process callers. Transient-vs-permanent travels separately
	// in the error's flags byte.
	{"file_exists", dfs.ErrFileExists},
	{"file_not_found", dfs.ErrFileNotFound},
	{"block_not_found", dfs.ErrBlockNotFound},
	{"no_replica", dfs.ErrNoReplica},
	{"bad_block_size", dfs.ErrBadBlockSize},
	{"bad_replication", dfs.ErrBadReplication},
	{"node_down", dfs.ErrNodeDown},
	{"checksum", dfs.ErrChecksum},
	{"no_live_nodes", dfs.ErrNoLiveNodes},
	{"unknown_node", dfs.ErrUnknownNode},
	{"inconsistent", dfs.ErrInconsistent},
	{"not_local", dfs.ErrNotLocal},
	{"journal", dfs.ErrJournal},
	{"overload", dfs.ErrOverload},
	{"lease_expired", dfs.ErrLeaseExpired},
	{"file_too_large", dfs.ErrFileTooLarge},
	{"quota", shard.ErrQuota},
	{"deadline", context.DeadlineExceeded},
	{"canceled", context.Canceled},
}

// codeFor returns the wire code for an error chain ("" when no
// sentinel matches).
func codeFor(err error) string {
	for _, ec := range wireCodes {
		if errors.Is(err, ec.sentinel) {
			return ec.code
		}
	}
	return ""
}

// sentinelFor returns the sentinel for a wire code (nil when
// unknown — the error still carries its message and transience).
func sentinelFor(code string) error {
	for _, ec := range wireCodes {
		if ec.code == code {
			return ec.sentinel
		}
	}
	return nil
}

// RemoteError is an error that crossed the wire: it prints the peer's
// message, unwraps to the sentinel its code names (so errors.Is
// works), and preserves the peer's transient classification (so
// dfs.IsTransient works).
type RemoteError struct {
	Code     string
	Msg      string
	IsRetry  bool
	sentinel error
}

func (e *RemoteError) Error() string { return e.Msg }

// Unwrap exposes the sentinel named by the wire code.
func (e *RemoteError) Unwrap() error { return e.sentinel }

// Transient reports the peer-side dfs.IsTransient classification.
func (e *RemoteError) Transient() bool { return e.IsRetry }
