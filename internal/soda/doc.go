// Package soda implements the SODA atomic storage protocol (Konwar,
// Prakash, Kantor, Lynch, Médard, Schwarzmann — "Storage-Optimized
// Data-Atomic Algorithms for Handling Erasures and Errors in
// Distributed Storage Systems", IPDPS 2016) over the internal/rs
// codec.
//
// A cluster of n servers implements one multi-writer multi-reader
// atomic register. Every written value is encoded into one [n, k] MDS
// codeword and each server stores exactly one coded element of it —
// the storage optimization in the paper's title: total storage is n/k
// times the value, versus n full copies under replication, and versus
// CASGC's (δ+1)·n/k for δ concurrent writes (Cadambe et al., "A Coded
// Shared Atomic Memory Algorithm for Message Passing Architectures").
// SODA buys the single-version storage bound with a server-relay
// structure on the read path instead of multi-version buffering.
//
// Roles and phases:
//
//   - Tag: every write is identified by a Tag = (ts, writer-id) with
//     the lexicographic total order; tags order all writes.
//
//   - Writer (two phases): get-tag queries all servers for their
//     local tag and waits for n-f responses, then picks
//     (max.ts+1, id); put-data encodes the value with rs.Encoder and
//     sends coded element i to server i, completing on n-f acks.
//
//   - Server (state machine, server.go): stores the one coded element
//     of the highest tag it has seen, keeps per-tag reader
//     registrations (reader, t_req) where t_req is the server's tag
//     at registration time, and relays every arriving put-data
//     element with tag >= t_req to each registered reader until the
//     reader unregisters.
//
//   - Reader: get-data registers at all servers; each server answers
//     with its current (tag, element) and then relays concurrent
//     writes as they arrive. Once initial responses from n-f servers
//     fix the target tag t_target (their maximum), the reader
//     completes with the first tag t >= t_target for which it holds
//     coded elements from k distinct servers, reconstructing the
//     value with rs.ReconstructData; it then unregisters everywhere.
//
// Fault tolerance: with f crash-faulty servers, writes and reads both
// wait on n-f quorums, and any two quorums intersect in n-2f >= k
// servers, so reads see every completed write; liveness therefore
// needs n >= k + 2f. Readers additionally require f < k: a read may
// adopt a half-applied write whose tag lives on only the k servers it
// decoded from, and k > f is what guarantees the next read's n-f
// initial quorum still meets one of them, keeping reads monotone. A reader built with WithReadErrors(e) runs the
// SODA_err variant: it waits for k + 2e coded elements of a matching
// tag (possible while n - f >= k + 2e), runs Verify-then-DecodeErrors
// on the very elements a plain SODA writer stored — there is one code —
// and reports the located corrupt server indices for quarantine, tolerating e servers that return silently
// corrupted elements on top of the crash faults (decoding radius
// 2e + erasures <= n - k).
//
// Transport: messages ride a small length-prefixed binary framing
// (wire.go) either over real TCP connections — NetServer (tcp.go) and
// its one client, the persistent multiplexed MuxConn (mux.go) — or over
// the deterministic in-process Loopback (loopback.go), which adds
// fail-stop, silent-crash, and corrupt-storage fault injection for
// tests and the sodademo binary. A healthy small operation starts no
// goroutine over either (see "Where the quorum phases run" below).
//
// The message set is the paper's plus RADON's two repair messages, key
// enumeration and the reconfiguration op. wire.go has one request and
// one response value with one append/decode pair each; rpc.go has the
// table the server dispatches every frame through and the client reads
// its expected response type from:
//
//	type  request      admission  request body            response
//	   1  get-tag      client     key                      2 tag-resp {tag}
//	   3  put-data     client     key, tag, vlen, elem     4 ack {}
//	   5  get-data     client     key, reader id           6 data {tag, vlen, initial, elem}, streamed
//	   7  reader-done  exempt     -                        none
//	   8  get-elem     donor      key                      9 elem-resp {tag, vlen, elem}
//	  10  repair-put   repair     key, tag, vlen, elem    11 repair-resp {accepted}
//	  13  keys         donor      -                       14 keys-resp {count, key...}
//	  16  reconfig     exempt     op, target epoch, n, k  17 reconfig-resp {epoch, pending, sealed, n, k}
//
// Who owns a put's element: below elemHandoffMin (64 KiB) Conn.PutData
// borrows elem for the call — the loopback server copies it into the
// register's one buffer, the TCP client into a frame. At or above it
// elem is the conn's from the call on: a Writer encodes such a value
// straight into n buffers from a free list, the loopback server swaps
// the buffer in as the register, and the buffer it displaces goes back
// to the list unless a reader may still hold it. RepairPut and the
// exported Server methods always borrow. A displaced buffer goes back
// marked cold — nobody has stored to it for a whole write of its key —
// and the next encode fills it with non-temporal stores, so its bytes
// cross the memory bus once instead of being read for ownership first;
// a fresh buffer, or one a conn freed, takes plain stores.
//
// Any request may instead draw 12 error {message} or 15 epoch-nack
// {want, sealed}. The admission classes are Server.Admit's: client
// needs the active epoch unsealed, donor the active epoch sealed or
// not, repair the active epoch or the pending one while sealed.
// Loopback calls the Server directly instead of going through the
// table: it has no frames to decode, and an indirect call would move
// its arguments to the heap on the in-process hot path.
//
// Where the quorum phases run: on the calling goroutine, then on legs
// for what is owed. A Writer or Reader asks each conn for the form of an
// exchange that cannot park, and reports what comes back through the same
// tally and completion rules the legs report into (writeTally;
// readState.addLocked, check, lose). Three cases. (1) Answers now: the
// loopback's own conn, where a reply is a function return —
// Writer.writeNow, the pass in Reader.Read. (2) Sent now, answers on the
// pump: a MuxConn writes the get-tag, put-data or get-data frame from the
// caller's goroutine, and its read loop hands the reply to the operation
// (writeCall's tally and wake, readState's sink) — so an operation over
// sockets starts no goroutine either, and parks about once a phase. The
// caller may never wait for a socket, so a frame is sent this way only if
// the session is up, the conn's write lock is free (TryLock), and the
// bytes written to the session that no answer yet vouches for stay within
// callerSendMax = 8 KiB: TCP delivers in order, so an answer proves the
// server has read everything written before its request, and what it has
// not is all that can still sit in a socket buffer — 16 KiB at the least
// (Linux's default tcp_wmem before autotuning) plus the peer's receive
// buffer; half of that leaves the kernel its bookkeeping. A read's
// reader-dones are not written at all: they wait on the conn for its next
// frame and go out in the same write, or after a millisecond on their own.
// (3) Owed a leg, one goroutine per server, completing on the first n-f
// answers: every exchange of a Conn that wraps another; of a MuxConn that
// is dialing, being written to by someone else, past the bound (a stalled
// peer, a 1 MiB value's elements); anything while a Loopback test hook is
// installed; a put-data to a durable server whose log or register was busy
// on two visits, or whose fsyncs wait for a device (those only overlap
// from n goroutines; the log times one fsync in 64 to tell); and the wait
// of a read the loopback pass left pending — on a concurrent write's
// relay, a hung server, the deadline — whose legs watch the registrations
// it made. A hung server is a leg that never answers. An operation that
// moved a handoff-sized value on the pass alone yields the processor once:
// a client that never parks starves the garbage collector's mark worker.
package soda
