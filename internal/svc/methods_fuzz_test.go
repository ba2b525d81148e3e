package svc

import (
	"bufio"
	"bytes"
	"context"
	"sort"
	"testing"
	"time"

	"github.com/adaptsim/adapt/internal/cluster"
	"github.com/adaptsim/adapt/internal/dfs"
	"github.com/adaptsim/adapt/internal/stats"
)

// FuzzMethodParams sends arbitrary params bytes to every nn.* and dn.*
// method of a live loopback cluster, through each Server's call
// dispatch (serveCall), which decodes them with typed[P]. Whatever the
// bytes, a method must not panic and must answer with one reply or
// error frame on the call's stream, and afterwards the endpoints must
// still answer an nn.list and a dn.blocks whose results decode. The
// cluster lives for the whole run, so one input's effects (a delete, an
// adapt, a lease) are the next input's state.
func FuzzMethodParams(f *testing.F) {
	c, err := cluster.NewEmulation(cluster.EmulationConfig{Nodes: 4, InterruptedRatio: 0.5}, stats.NewRNG(1))
	if err != nil {
		f.Fatal(err)
	}
	lc, err := StartLocalCluster(c, stats.NewRNG(2), nil, NameNodeConfig{BlockSize: 64, Replication: 2})
	if err != nil {
		f.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	cl := lc.Client("shell")
	f.Cleanup(func() {
		cl.Close()
		_ = lc.Close(ctx)
		cancel()
	})
	if _, _, err := cl.CopyFromLocal(ctx, "/f", bytes.Repeat([]byte("fuzz"), 40), false); err != nil {
		f.Fatal(err)
	}
	type endpoint struct {
		srv     *Server
		methods []string
	}
	servers := []*Server{lc.NN.srv}
	for _, dn := range lc.DNs {
		servers = append(servers, dn.srv)
	}
	var endpoints []endpoint
	for _, srv := range servers {
		var methods []string
		for name := range srv.methods {
			methods = append(methods, name)
		}
		sort.Strings(methods)
		endpoints = append(endpoints, endpoint{srv, methods})
	}

	// The params' binary layouts, and the JSON that once carried them,
	// which is now garbage to every method.
	for _, seed := range []wireValue{
		empty{},
		nameParams{Name: "/f"}, allocateParams{Name: "/g", Size: 100, Adapt: true}, allocateParams{Name: "/f", Size: -1},
		completeParams{Name: "/g", Blocks: []dfs.BlockMeta{{ID: 1, Replicas: []cluster.NodeID{0, 9}}}},
		heartbeatParams{Node: 1, Epoch: 2, Seq: 3}, heartbeatParams{Node: -1}, getParams{Block: 1}, getParams{Block: -5},
	} {
		f.Add(seed.appendWire(nil))
	}
	for _, seed := range []string{
		`null`, `{}`, `[]`, `"x"`, `0`,
		`{"name":"/f"}`, `{"name":"/g","size":100,"adapt":true}`, `{"name":"/f","size":-1}`,
		`{"name":"/g","blocks":[{"id":1,"replicas":[0,9]}],"report":{}}`,
		`{"node":1,"epoch":2,"seq":3}`, `{"node":-1}`, `{"block":1}`, `{"block":-5}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, params []byte) {
		for _, ep := range endpoints {
			for _, method := range ep.methods {
				dispatch(t, ep.srv, method, params)
			}
		}
		if res := dispatch(t, lc.NN.srv, "nn.list", nil).wantReply(t); !decodeValue(res, &listResult{}) {
			t.Fatalf("nn.list replied %x", res)
		}
		for _, dn := range lc.DNs {
			if res := dispatch(t, dn.srv, "dn.blocks", nil).wantReply(t); !decodeValue(res, &blocksResult{}) {
				t.Fatalf("dn.blocks replied %x", res)
			}
		}
	})
}

// answer is the one frame a call was answered with.
type answer struct {
	method string
	frame  frame2
}

// wantReply fails t unless the call succeeded, and returns its result.
func (a answer) wantReply(t *testing.T) []byte {
	t.Helper()
	if a.frame.Type != frameReply {
		t.Fatalf("%s answered %v, want a reply", a.method, decodeErrorFrame(a.frame.Payload))
	}
	return a.frame.Payload
}

// dispatch runs one call to method with params through srv's call
// path, as a connection's serve loop does, and returns the one frame it
// was answered with: a reply, or an error frame that decodes.
func dispatch(t *testing.T, srv *Server, method string, params []byte) answer {
	t.Helper()
	const stream = 7
	var out bytes.Buffer
	call := frame2{Type: frameCall, Stream: stream,
		Payload: encodeCall(callHeader{DeadlineMS: 2000, From: "fuzz", Method: method}, params)}
	if err := srv.serveCall(bufio.NewWriter(&out), call); err != nil {
		t.Fatalf("%s: the call ended the connection: %v", method, err)
	}
	fr, err := readFrame2(&out, nil)
	switch {
	case err != nil:
		t.Fatalf("%s: no answer frame: %v", method, err)
	case fr.Stream != stream || (fr.Type != frameReply && fr.Type != frameError):
		t.Fatalf("%s answered with frame type %d on stream %d", method, fr.Type, fr.Stream)
	case out.Len() != 0:
		t.Fatalf("%s answered with %d bytes past its frame", method, out.Len())
	case fr.Type == frameError && decodeErrorFrame(fr.Payload) == nil:
		t.Fatalf("%s answered with an error frame that decodes to no error", method)
	}
	return answer{method, fr}
}
