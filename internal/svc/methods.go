package svc

import (
	"context"
	"fmt"
)

// rpcHandler serves one RPC from its undecoded params.
type rpcHandler func(ctx context.Context, params []byte) (wireValue, error)

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

// typed adapts a handler that takes its params decoded. P's pointer
// must read P's layout and the handler returns a wireValue, so a method
// whose params or result have no codec does not compile.
func typed[P any, PR interface {
	*P
	valueReader
}](fn func(ctx context.Context, p P) (wireValue, error)) rpcHandler {
	return func(ctx context.Context, params []byte) (wireValue, error) {
		var p P
		if !decodeValue(params, PR(&p)) {
			return nil, fmt.Errorf("%w: params: malformed %T", ErrBadFrame, p)
		}
		return fn(ctx, p)
	}
}

// bare adapts a handler of a method that takes no params: any params
// bytes are refused, as typed refuses trailing ones.
func bare(fn func(ctx context.Context) (wireValue, error)) rpcHandler {
	return typed(func(ctx context.Context, _ empty) (wireValue, error) { return fn(ctx) })
}
