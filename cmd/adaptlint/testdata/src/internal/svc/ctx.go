// ctx.go is the ctxcheck fixture: fresh Background/TODO contexts
// below the CLI layer, a dropped ctx parameter, and the one allowed
// pattern (the WithCancel lifecycle root).
package svc

import (
	"context"
	"time"
)

// Fetch mints a fresh Background for an RPC — flagged: threading
// it on does not bring back the caller's deadline.
func Fetch() error {
	ctx := context.Background()
	return FetchContext(ctx)
}

// FetchContext threads the context — clean.
func FetchContext(ctx context.Context) error {
	_ = ctx
	return nil
}

// Drop has a perfectly good ctx in scope and still mints TODO —
// flagged with the dropped-parameter message.
func Drop(ctx context.Context) error {
	return FetchContext(context.TODO())
}

// Read is a context-free twin delegating to its Context-suffixed
// sibling — flagged: no operation has a second, ctx-less form.
func Read() error { return ReadContext(context.Background()) }

// ReadContext threads the context — clean.
func ReadContext(ctx context.Context) error {
	_ = ctx
	return nil
}

// Serve owns its lifecycle: WithCancel(Background()) is the allowed
// root idiom, the cancel func being the component's stop handle.
func Serve() (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	_ = ctx
	return cancel
}

// Scan bounds work with WithTimeout(Background()) — flagged: a
// timeout without the caller's cancellation still outlives a
// shutdown.
func Scan() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	return FetchContext(ctx)
}

// call is the fixture's RPC chokepoint — wire-crossing by name.
func call(ctx context.Context, method string) error {
	_ = ctx
	_ = method
	return nil
}

// Client stands in for the svc client — wire-crossing by receiver.
type Client struct{}

// ReadFile is a client RPC.
func (c *Client) ReadFile(ctx context.Context, name string) error {
	_ = ctx
	_ = name
	return nil
}

// Pump hands its lifecycle root straight to an RPC — flagged: the
// root is allowed to exist (WithCancel idiom), but crossing the wire
// without a deadline lets one gray peer stall the call forever.
func Pump() error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	return call(ctx, "nn.read")
}

type tagKey struct{}

// Tag derives a value-carrying context from the root and passes it to
// a Client RPC — flagged: WithValue does not add a deadline.
func Tag(c *Client) error {
	root, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := context.WithValue(root, tagKey{}, "v")
	return c.ReadFile(ctx, "f")
}

// Bounded budgets the boundary: the lifecycle root stays local and
// the wire call gets a WithTimeout child — clean.
func Bounded() error {
	root, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx, tcancel := context.WithTimeout(root, time.Second)
	defer tcancel()
	return call(ctx, "nn.read")
}

// Relay forwards its caller's context — clean: the caller may well
// have set a deadline, only provably deadline-free chains are flagged.
func Relay(ctx context.Context) error {
	return call(ctx, "dn.get")
}

// server holds a lifecycle context in a field.
type server struct {
	lifeCtx context.Context
}

// scrubLoop passes a context of unknown provenance (selector) to an
// RPC — clean: field contexts are the component's documented
// lifecycle idiom and may be bounded elsewhere.
func (s *server) scrubLoop() error {
	return call(s.lifeCtx, "dn.delete")
}

// dial is the fixture's one way onto the network, for call and stream
// connections alike — wire-crossing by name.
func dial(ctx context.Context, addr string) error {
	_ = ctx
	_ = addr
	return nil
}

// Connect dials under its lifecycle root — flagged: a gray peer that
// never completes the handshake holds the dial forever.
func Connect() error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	return dial(ctx, "127.0.0.1:9000")
}

// streamPool stands in for an owner's parked stream connections.
type streamPool struct{}

// acquireConn hands out a parked connection or dials one —
// wire-crossing by name, whichever it does.
func (p *streamPool) acquireConn(ctx context.Context, addr string) error {
	_ = ctx
	_ = addr
	return nil
}

// Stream takes a stream connection under its lifecycle root — flagged:
// a parked connection is armed with the stream's deadline, and there is
// none to arm it with.
func Stream(p *streamPool) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	return p.acquireConn(ctx, "127.0.0.1:9001")
}
