package soda

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
)

// BenchmarkMuxRound is one client round over sockets, the layer number of
// mux-small: a Writer and a Reader over five NetServers on 127.0.0.1, 128 B
// values, half writes, from two goroutines. Divided by BenchmarkMuxFloor's
// ns/op it is the share of a socket round the protocol costs.
func BenchmarkMuxRound(b *testing.B) {
	codec, err := NewCodec(5, 3)
	if err != nil {
		b.Fatal(err)
	}
	addrs, _ := startTCPServers(b, 5)
	conns := TCPMuxConns(addrs)
	b.Cleanup(func() { CloseConns(conns) })
	w, err := NewWriter("w", codec, conns)
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewReader("r", codec, conns)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	value := make([]byte, 128)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench/%02d", i)
		if _, err := w.Write(ctx, keys[i], value); err != nil {
			b.Fatal(err)
		}
	}
	const callers = 2
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < b.N; i += callers {
				key := keys[i%len(keys)]
				var err error
				if i/callers%2 == 0 {
					_, err = w.Write(ctx, key, value)
				} else {
					_, err = r.Read(ctx, key)
				}
				if err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkMuxFloor is BenchmarkMuxRound's transport with no protocol: the
// same five sockets with a connWriter on each end, a server that answers
// each frame with a 64-byte echo from its read loop through its writer, and
// two callers that each queue one frame to every server and wait for four
// answers — the n-f of a quorum phase — per round.
func BenchmarkMuxFloor(b *testing.B) {
	const n, quorum, callers = 5, 4, 2
	var wg sync.WaitGroup
	b.Cleanup(wg.Wait)
	// done, closed before wg.Wait (cleanups run last first), releases a
	// socket reader still waiting on a caller that has returned.
	done := make(chan struct{})
	b.Cleanup(func() { close(done) })
	// answers[c] hears, from every client socket's reader, the round number
	// of each echo addressed to caller c. A caller leaves at most one
	// straggler per round unread, so room for a few rounds means a socket
	// reader waits on a caller only when it falls that many rounds behind,
	// or once the callers are gone.
	var answers [callers]chan uint64
	for c := range answers {
		answers[c] = make(chan uint64, 4*n)
	}
	writers := make([]*connWriter, n)
	for i := range writers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { ln.Close() })
		wg.Add(1)
		go func() { // the server: echo every frame through its writer
			defer wg.Done()
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			sw := newConnWriter(conn, 64, func(error) { conn.Close() })
			wg.Add(1)
			go func() {
				defer wg.Done()
				sw.run()
			}()
			defer sw.shutdown()
			br := bufio.NewReader(conn)
			var buf []byte
			for {
				p, err := readFrame(br, buf)
				if err != nil {
					return
				}
				buf = p[:0]
				sw.send(echoFrame(p))
			}
		}()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		cw := newConnWriter(conn, 64, func(error) { conn.Close() })
		writers[i] = cw
		b.Cleanup(cw.shutdown)
		wg.Add(2)
		go func() {
			defer wg.Done()
			cw.run()
		}()
		go func() { // the client socket's reader: route each echo to its caller
			defer wg.Done()
			br := bufio.NewReader(conn)
			var buf []byte
			for {
				p, err := readFrame(br, buf)
				if err != nil {
					return
				}
				buf = p[:0]
				select {
				case answers[p[0]] <- binary.BigEndian.Uint64(p[1:]):
				case <-done:
					return
				}
			}
		}()
	}
	b.ResetTimer()
	var callerWG sync.WaitGroup
	for c := range callers {
		callerWG.Add(1)
		go func() {
			defer callerWG.Done()
			var round uint64
			var req [9]byte // caller, round
			req[0] = byte(c)
			for i := c; i < b.N; i += callers {
				round++
				binary.BigEndian.PutUint64(req[1:], round)
				for _, cw := range writers {
					cw.send(echoFrame(req[:]))
				}
				for got := 0; got < quorum; {
					if <-answers[c] == round { // a straggler of an earlier round does not count
						got++
					}
				}
			}
		}()
	}
	callerWG.Wait()
}

// echoFrame is a 64-byte frame whose payload starts with p.
func echoFrame(p []byte) *[]byte {
	bp := getFrame()
	*bp = binary.BigEndian.AppendUint32(*bp, 60)
	*bp = append(*bp, make([]byte, 60)...)
	copy((*bp)[4:], p)
	return bp
}
