package svc

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/shard"
)

// MaxBlockBytes bounds one block on the v2 data plane (pipeline.go,
// stream.go): twice the 64 MB HDFS default block.
const MaxBlockBytes = 128 << 20

// MaxControlFrame bounds one JSON frame. No JSON message carries file
// or block bytes, so the bound is sized for metadata. The largest
// legitimate frames are a many-block FileMeta (nn.stat, nn.locate and
// nn.cp replies, the nn.complete request), nn.list and dn.blocks. One
// BlockMeta encodes to about 110 bytes plus the file name it repeats,
// so 16 MiB holds a 65,536-block file (dfs.MaxFileBlocks, which
// nn.allocate enforces) with 140-byte names — 4 TiB at the default
// 64 MB block — and, at about 60 bytes a name and 12 a
// block id, a listing of 250,000 files or an inventory of a million
// blocks. A frame announcing more is refused before any buffer is
// taken for it.
const MaxControlFrame = 16 << 20

// TransportFaults is the hook through which a chaos engine perturbs
// the wire layer. Both the dialing side (per call) and the serving
// side (per received request) consult it; chaos.NetFaults implements
// it. Implementations must be safe for concurrent use.
type TransportFaults interface {
	// FailMessage may return a non-nil error to sever the message
	// between the named endpoints; the transport fails the call and
	// drops the connection, emulating a partition or message loss.
	FailMessage(from, to string) error
	// MessageDelay returns injected latency imposed before the
	// message is sent.
	MessageDelay(from, to string) time.Duration
}

// request is the wire envelope for one RPC.
type request struct {
	ID     uint64 `json:"id"`
	From   string `json:"from,omitempty"`
	Method string `json:"method"`
	// DeadlineMS carries the caller's remaining deadline budget in
	// milliseconds; 0 means no deadline. The server derives the
	// handler context from it, so deadlines propagate end to end.
	DeadlineMS int64           `json:"deadline_ms,omitempty"`
	Params     json.RawMessage `json:"params,omitempty"`
}

// response is the wire envelope for one RPC result.
type response struct {
	ID        uint64          `json:"id"`
	Code      string          `json:"code,omitempty"`
	Error     string          `json:"error,omitempty"`
	Transient bool            `json:"transient,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
}

// writeFrame marshals v and writes it as one length-prefixed frame.
// Callers serialize access to w.
func writeFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("svc: encode frame: %w", err)
	}
	if len(body) > MaxControlFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(body))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("svc: write frame header: %w", err)
	}
	if _, err := w.Write(body); err != nil {
		return fmt.Errorf("svc: write frame body: %w", err)
	}
	return nil
}

// readFrame reads one length-prefixed frame into v.
func readFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("svc: read frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxControlFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	// Pooled body, released on every path: json.Unmarshal never keeps
	// a reference to its input (json.RawMessage fields copy), so the
	// buffer is dead once this returns.
	body := frameBufs.get(int(n))
	defer frameBufs.put(body)
	if _, err := io.ReadFull(r, body); err != nil {
		return fmt.Errorf("svc: read frame body: %w", err)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return nil
}

// marshalResult encodes a handler's result for the response envelope.
// A nil result becomes JSON null, which still decodes cleanly into
// any caller-side result type.
func marshalResult(result any) (json.RawMessage, error) {
	b, err := json.Marshal(result)
	if err != nil {
		return nil, fmt.Errorf("svc: encode result: %w", err)
	}
	return b, nil
}

// encodeError fills a response's error fields from an error chain:
// the first matching wire code, the printable message, and the
// transient classification.
func encodeError(resp *response, err error) {
	resp.Code = codeFor(err)
	resp.Error = err.Error()
	resp.Transient = dfs.IsTransient(err)
}

// decodeError rehydrates a response's error fields. nil when the
// response carries no error.
func decodeError(resp *response) error {
	if resp.Error == "" && resp.Code == "" {
		return nil
	}
	return &RemoteError{
		Code:     resp.Code,
		Msg:      resp.Error,
		IsRetry:  resp.Transient,
		sentinel: sentinelFor(resp.Code),
	}
}

// deadlineBudget converts a context deadline into the wire's
// remaining-milliseconds form (0 = none). now is time.Now at call
// time.
func deadlineBudget(ctx context.Context, now time.Time) int64 {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := dl.Sub(now).Milliseconds()
	if ms < 1 {
		return 1 // expired or sub-millisecond: force an immediate server-side timeout
	}
	return ms
}

func init() {
	// The dfs taxonomy crosses the wire so shell clients and the
	// NameNode's remote stores classify failures exactly like
	// in-process callers. Transient-vs-permanent travels separately
	// in the response envelope.
	registerCode("file_exists", dfs.ErrFileExists)
	registerCode("file_not_found", dfs.ErrFileNotFound)
	registerCode("block_not_found", dfs.ErrBlockNotFound)
	registerCode("no_replica", dfs.ErrNoReplica)
	registerCode("bad_block_size", dfs.ErrBadBlockSize)
	registerCode("bad_replication", dfs.ErrBadReplication)
	registerCode("node_down", dfs.ErrNodeDown)
	registerCode("checksum", dfs.ErrChecksum)
	registerCode("no_live_nodes", dfs.ErrNoLiveNodes)
	registerCode("unknown_node", dfs.ErrUnknownNode)
	registerCode("inconsistent", dfs.ErrInconsistent)
	registerCode("not_local", dfs.ErrNotLocal)
	registerCode("journal", dfs.ErrJournal)
	registerCode("overload", dfs.ErrOverload)
	registerCode("lease_expired", dfs.ErrLeaseExpired)
	registerCode("file_too_large", dfs.ErrFileTooLarge)
	registerCode("quota", shard.ErrQuota)
	registerCode("deadline", context.DeadlineExceeded)
	registerCode("canceled", context.Canceled)
}
