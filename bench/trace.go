package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/soda"
)

// Tracing lives entirely in this directory: a soda.Conn decorator
// records one child span per RPC into the op's trace record, which the
// client loop carries to it through ctx. Spans inside internal/ are a
// later change.

const (
	rpcGetTag = iota
	rpcPutData
	rpcGetData
	numRPC
)

var rpcNames = [numRPC]string{"get-tag", "put-data", "get-data"}

var traceBase = time.Now()

func nanos() int64 { return int64(time.Since(traceBase)) }

// rpcSpan is one RPC of one op on one server. The legs of a quorum run
// on other goroutines and the slowest may outlive the op, so both ends
// are atomics; end == 0 means still running.
type rpcSpan struct{ start, end atomic.Int64 }

// opTrace is one Write or Read: the root span plus a slot per (RPC,
// server). A get-data span ends at the server's initial delivery — the
// call itself blocks until the read cancels it — and later deliveries
// on it are relays.
type opTrace struct {
	id         uint64
	op         op
	start, end int64
	rpc        [numRPC][nServers]rpcSpan
	putBytes   atomic.Int64 // element bytes handed to PutData
	gotBytes   atomic.Int64 // element bytes delivered by GetData
	relays     atomic.Int64 // deliveries after a server's initial one
}

type traceKey struct{}

func traceOf(ctx context.Context) *opTrace {
	ot, _ := ctx.Value(traceKey{}).(*opTrace)
	return ot
}

// traceRoot records the root span of the op ctx carries, from the same
// clock readings the latency sample uses.
func traceRoot(ctx context.Context, start time.Time, lat time.Duration) {
	if ot := traceOf(ctx); ot != nil {
		ot.start = int64(start.Sub(traceBase))
		ot.end = ot.start + int64(lat)
	}
}

// tracedConn decorates the three RPCs a Writer and a Reader use.
type tracedConn struct{ soda.Conn }

func traceConns(conns []soda.Conn) []soda.Conn {
	out := make([]soda.Conn, len(conns))
	for i, c := range conns {
		out[i] = tracedConn{c}
	}
	return out
}

func (c tracedConn) GetTag(ctx context.Context, key string) (soda.Tag, error) {
	ot := traceOf(ctx)
	if ot == nil {
		return c.Conn.GetTag(ctx, key)
	}
	sp := &ot.rpc[rpcGetTag][c.Index()]
	sp.start.Store(nanos())
	t, err := c.Conn.GetTag(ctx, key)
	sp.end.Store(nanos())
	return t, err
}

func (c tracedConn) PutData(ctx context.Context, key string, t soda.Tag, elem []byte, vlen int) error {
	ot := traceOf(ctx)
	if ot == nil {
		return c.Conn.PutData(ctx, key, t, elem, vlen)
	}
	ot.putBytes.Add(int64(len(elem)))
	sp := &ot.rpc[rpcPutData][c.Index()]
	sp.start.Store(nanos())
	err := c.Conn.PutData(ctx, key, t, elem, vlen)
	sp.end.Store(nanos())
	return err
}

func (c tracedConn) GetData(ctx context.Context, key, readerID string, deliver func(soda.Delivery)) error {
	ot := traceOf(ctx)
	if ot == nil {
		return c.Conn.GetData(ctx, key, readerID, deliver)
	}
	sp := &ot.rpc[rpcGetData][c.Index()]
	sp.start.Store(nanos())
	return c.Conn.GetData(ctx, key, readerID, func(d soda.Delivery) {
		if d.Initial {
			sp.end.Store(nanos())
		} else {
			ot.relays.Add(1)
		}
		ot.gotBytes.Add(int64(len(d.Elem)))
		deliver(d)
	})
}

// keepOps is how many ops per client keep their spans for the trace
// file; every op is aggregated. At 140k ops/s a file of all spans would
// be hundreds of megabytes per run.
const keepOps = 2000

// settleOps is how many later ops a client completes before it reads a
// trace record back: by then the quorum stragglers of that op have
// finished, so their spans are counted too.
const settleOps = 64

// clientTrace aggregates one client's ops. Only its own goroutine
// touches it.
type clientTrace struct {
	client  int
	nextID  uint64
	pending [settleOps]*opTrace // ring, oldest at ended % settleOps
	ended   int
	kept    []*opTrace

	ops       [2]int64
	self      [2][]uint32 // op span minus the union of its RPC spans, ns
	blocked   [2][]uint32 // that union, ns
	rpcDur    [numRPC][]uint32
	rpcs      int64
	putBytes  int64
	gotBytes  int64
	relays    int64
	scratchIv []interval
}

func newClientTrace(client int) *clientTrace {
	return &clientTrace{client: client, nextID: uint64(client) << 40}
}

func (tr *clientTrace) begin(o op) *opTrace {
	tr.nextID++
	return &opTrace{id: tr.nextID, op: o}
}

func (tr *clientTrace) end(ot *opTrace) {
	slot := &tr.pending[tr.ended%settleOps]
	if *slot != nil {
		tr.harvest(*slot)
	}
	*slot = ot
	tr.ended++
}

func (tr *clientTrace) flush() {
	for i := range tr.pending {
		slot := &tr.pending[(tr.ended+i)%settleOps]
		if *slot != nil {
			tr.harvest(*slot)
			*slot = nil
		}
	}
}

// selfTime is the root span's duration minus the part of it its child
// spans cover, each child clipped to the root.
func selfTime(start, end int64, children []interval) (self, covered int64) {
	clipped := children[:0]
	for _, iv := range children {
		iv.start, iv.end = max(iv.start, start), min(iv.end, end)
		if iv.end > iv.start {
			clipped = append(clipped, iv)
		}
	}
	covered = unionLen(clipped)
	return end - start - covered, covered
}

func (tr *clientTrace) harvest(ot *opTrace) {
	kind := ot.op.kind()
	ivs := tr.scratchIv[:0]
	for r := range ot.rpc {
		for s := range ot.rpc[r] {
			sp := &ot.rpc[r][s]
			start, end := sp.start.Load(), sp.end.Load()
			if start == 0 {
				continue
			}
			tr.rpcs++
			if end == 0 {
				end = ot.end // never answered: it blocked the op to the end
			} else {
				tr.rpcDur[r] = append(tr.rpcDur[r], clampNS(end-start))
			}
			ivs = append(ivs, interval{start, end})
		}
	}
	self, covered := selfTime(ot.start, ot.end, ivs)
	tr.scratchIv = ivs
	tr.ops[kind]++
	tr.self[kind] = append(tr.self[kind], clampNS(self))
	tr.blocked[kind] = append(tr.blocked[kind], clampNS(covered))
	tr.putBytes += ot.putBytes.Load()
	tr.gotBytes += ot.gotBytes.Load()
	tr.relays += ot.relays.Load()
	if len(tr.kept) < keepOps {
		tr.kept = append(tr.kept, ot)
	}
}

func clampNS(d int64) uint32 { return uint32(max(0, min(d, 1<<32-1))) }

// spanLine is one line of the trace file.
type spanLine struct {
	Op      uint64 `json:"op"`
	Name    string `json:"name"`
	Parent  string `json:"parent"` // the root span's name; empty on a root
	Client  int    `json:"client"`
	Key     uint32 `json:"key"`
	Server  int    `json:"server"` // -1 on a root
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"` // 0: the RPC had not answered when the op was read back
}

// writeSpans writes the kept spans of every client as JSON lines.
func writeSpans(path string, traces []*clientTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, tr := range traces {
		for _, ot := range tr.kept {
			root := "read"
			if ot.op.write {
				root = "write"
			}
			line := spanLine{Op: ot.id, Name: root, Client: tr.client, Key: ot.op.key, Server: -1, StartNS: ot.start, EndNS: ot.end}
			if err := enc.Encode(line); err != nil {
				return err
			}
			line.Parent = root
			for r := range ot.rpc {
				for s := range ot.rpc[r] {
					sp := &ot.rpc[r][s]
					if sp.start.Load() == 0 {
						continue
					}
					line.Name, line.Server = rpcNames[r], s
					line.StartNS, line.EndNS = sp.start.Load(), sp.end.Load()
					if err := enc.Encode(line); err != nil {
						return err
					}
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
