package svc

import (
	"context"
	"encoding/json"
	"fmt"
)

// rpcHandler serves one RPC from its undecoded params.
type rpcHandler func(ctx context.Context, params []byte) (any, error)

// rpcMethod declares one RPC of a server: its admission class and its
// handler.
type rpcMethod struct {
	class rpcClass
	serve rpcHandler
}

// methodTable is every RPC a server answers, by name.
type methodTable map[string]rpcMethod

// classOf maps an RPC method name to its admission class. Unknown
// methods classify as background: they are shed earliest, which is the
// safe default for traffic the server did not plan capacity for.
func (t methodTable) classOf(method string) rpcClass {
	if m, ok := t[method]; ok {
		return m.class
	}
	return classBackground
}

// typed adapts a handler that takes its params decoded.
func typed[P any](fn func(ctx context.Context, p P) (any, error)) rpcHandler {
	return func(ctx context.Context, params []byte) (any, error) {
		var p P
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, fmt.Errorf("%w: params: %v", ErrBadFrame, err)
		}
		return fn(ctx, p)
	}
}

// bare adapts a handler of a method that takes no params.
func bare(fn func(ctx context.Context) (any, error)) rpcHandler {
	return func(ctx context.Context, _ []byte) (any, error) { return fn(ctx) }
}
