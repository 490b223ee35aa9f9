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
//     coded elements from k distinct servers, joining the value from
//     the data elements (Codec.DecodeValue), or rebuilding the missing
//     ones with rs's ReconstructInto first; it then unregisters
//     everywhere.
//
// Fault tolerance: with f crash-faulty servers, writes and reads both
// wait on n-f quorums, and any two quorums intersect in n-2f >= k
// servers, so reads see every completed write; liveness therefore
// needs n >= k + 2f. Readers additionally require f < k: a read may
// adopt a half-applied write whose tag lives on only the k servers it
// decoded from, and k > f is what guarantees the next read's n-f
// initial quorum still meets one of them, keeping reads monotone. A reader whose Config has E = e > 0 runs the
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
// tests and the examples. Every Conn method but PutData is
// written once for both (rpcConn, rpc.go). A healthy small operation
// starts no goroutine over either (see "Where the quorum phases run"
// below).
//
// The message set is the paper's plus RADON's two repair messages, key
// enumeration and the reconfiguration op. wire.go has one request and
// one response value with one append/decode pair each; rpc.go has the
// table NetServer and Loopback serve requests through and MuxConn reads
// its expected response type from:
//
//	type  request      admission  request body            response
//	   1  get-tag      mint       key                      2 tag-resp {tag}
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
// {want, sealed}. The admission classes are Server.admit's: client
// needs the active epoch unsealed, mint (get-tag) that and no freeze
// announced by a flip, donor the active epoch sealed or not, repair the
// active epoch or the pending one while sealed. Loopback's step forms
// call the Server directly instead of going through the table: it has
// no frames to decode, and an indirect call would move their arguments
// to the heap on the in-process hot path.
//
// Where the quorum phases run: on the calling goroutine, then on legs for
// what is owed. A Writer or Reader steps each exchange through its conn —
// one pass per phase, the put-data pass coming back once to what was not
// taken (stepper) — and every answer goes through the same tally and
// completion rules the legs report into (writeTally; readState.addLocked,
// check, lose). A loopback conn answers now: a reply is a function return.
// A MuxConn takes the exchange: it queues the frame from the caller's
// goroutine to the session's writer (the connWriter a NetServer connection
// has too: one goroutine per socket, frames queued meanwhile share its next
// write) if the session is up, the queue has room and the bytes that no
// answer yet vouches for are within callerSendMax = 8 KiB (what a peer that
// stopped reading may absorb from callers, as TCP delivers in order), and
// its read loop answers the operation's waiter (writeCall's tally and
// wake, readState's sink). A read's reader-dones ride the conn's next
// frame, or are queued after a millisecond on their own. Owed a leg, one
// goroutine per exchange, completing on the first n-f answers: every
// exchange of a conn that is no stepper (one that wraps another); what a
// MuxConn does not take (dialing, past the bound or the queue's room, for
// which a leg waits); anything while a Loopback test hook
// is installed; a put-data to a durable server whose log or register was
// busy on both visits, or whose fsyncs wait for a device. A read the pass
// left pending keeps the registrations it made, over either transport, and
// each one's end comes through the read's waiter, reported once by whoever
// removed it from its register: the server (an epoch flip's NACK, a crash,
// or silently a hang) or the read. A hung server is a leg that never
// answers. An operation that
// moved a handoff-sized value on the pass alone yields the processor once:
// a client that never parks starves the garbage collector's mark worker.
package soda
