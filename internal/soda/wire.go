package soda

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// Length-prefixed binary framing. Every message is one frame:
//
//	uint32 big-endian payload length | payload
//
// and every payload starts with a fixed header:
//
//	byte type | uint64 request-id | uint64 epoch
//
// The epoch is the configuration epoch the sender believes the cluster
// is in (see config.go). A client stamps every request with its
// config's epoch; a server NACKs any request whose epoch does not
// match its own with msgEpochNack, so a quorum can never mix two
// geometries — each completed operation's response set comes from
// exactly one epoch. Responses carry the server's current epoch.
//
// The request id is chosen by the client and echoed verbatim on every
// response, so one long-lived connection can carry many concurrent
// exchanges: a demux pump on the client routes each response frame to
// the requester by (type, request-id), and a get-data stream keeps its
// request id for the lifetime of the relay (every msgData frame on the
// stream carries it). msgError echoes the offending request's id;
// request id 0 in an error frame means the error is connection-level
// (the peer could not even parse a header).
//
// Client→server messages address a named register with a uint16
// length-prefixed key (≤ maxKeyLen bytes). Integers are big-endian;
// byte strings carry a uint32 length, the writer id in a tag a uint16
// length. The format is deliberately tiny and has no versioning beyond
// the type byte; it is an internal cluster protocol, not a public API.

// Message types.
const (
	msgGetTag     byte = 1  // c->s: get-tag phase {key}
	msgTagResp    byte = 2  // s->c: the server's tag for the key
	msgPutData    byte = 3  // c->s: put-data phase {key, tag, vlen, elem}
	msgAck        byte = 4  // s->c: put-data acknowledged
	msgGetData    byte = 5  // c->s: register reader {key, readerID}; opens a relay stream
	msgData       byte = 6  // s->c: {tag, vlen, initial, elem}, repeated on the stream's id
	msgReaderDone byte = 7  // c->s: unregister the stream with this request id
	msgGetElem    byte = 8  // c->s: repair collection — fetch (tag, elem) {key}
	msgElemResp   byte = 9  // s->c: {tag, vlen, elem}
	msgRepairPut  byte = 10 // c->s: install a repaired element {key, tag, vlen, elem}
	msgRepairResp byte = 11 // s->c: {accepted}: tag >= current, installed
	msgError      byte = 12 // s->c: {message}: explicit protocol error for request id
	msgKeys       byte = 13 // c->s: enumerate the server's non-empty keys
	msgKeysResp   byte = 14 // s->c: {count, key...}

	msgEpochNack    byte = 15 // s->c: {want, sealed}: frame epoch rejected; header carries server's epoch
	msgReconfig     byte = 16 // c->s: coordinator op {op, epoch, n, k}: status/seal/activate
	msgReconfigResp byte = 17 // s->c: {epoch, pending, sealed}: the server's epoch state
)

// maxFrame bounds a frame payload; a peer announcing more is treated
// as broken rather than allocated for.
const maxFrame = 16 << 20

// maxKeyLen bounds register keys on the wire; the uint16 length field
// allows more, but a key is a name, not a payload.
const maxKeyLen = 255

// maxKeys bounds a keys-resp enumeration a peer can make us allocate.
const maxKeys = 1 << 20

// headerLen is the fixed payload prefix: type byte + uint64 request id
// + uint64 epoch.
const headerLen = 1 + 8 + 8

var (
	// ErrFrame is returned for malformed or oversized frames.
	ErrFrame = errors.New("soda: malformed wire frame")

	// ErrStaleEpoch is the sentinel every epoch rejection matches: the
	// frame's configuration epoch and the server's did not agree (or
	// the server is sealed for a flip). Clients react by refetching the
	// current Config and retrying the whole operation under it.
	ErrStaleEpoch = errors.New("soda: stale configuration epoch")
)

// StaleEpochError is a server's typed epoch NACK. ServerEpoch is the
// epoch the server is in; Want is the smallest epoch the client should
// present (the pending epoch while the server is sealed mid-flip);
// Sealed reports that a reconfiguration is in progress. It matches
// errors.Is(err, ErrStaleEpoch).
type StaleEpochError struct {
	Server      int    // server shard index, -1 when unknown
	ServerEpoch uint64 // epoch the server is serving (or sealed at)
	Want        uint64 // epoch the client should retry with
	Sealed      bool   // a flip to Want is in progress
}

func (e *StaleEpochError) Error() string {
	state := "active"
	if e.Sealed {
		state = "sealed"
	}
	return fmt.Sprintf("soda: stale configuration epoch: server %d at epoch %d (%s), want %d",
		e.Server, e.ServerEpoch, state, e.Want)
}

func (e *StaleEpochError) Is(target error) bool { return target == ErrStaleEpoch }

// EpochStatus is a server's configuration-epoch state as reported on
// the wire: the active epoch and its [N,K] geometry, and — while
// sealed for a two-phase flip — the pending epoch being migrated to.
type EpochStatus struct {
	Epoch   uint64
	Pending uint64
	Sealed  bool
	N, K    int
}

// ReconfigOp selects what a msgReconfig frame asks a server to do.
type ReconfigOp byte

const (
	ReconfigStatus   ReconfigOp = 0 // report epoch state, change nothing
	ReconfigSeal     ReconfigOp = 1 // seal the current epoch, pending the target
	ReconfigActivate ReconfigOp = 2 // activate the target epoch (requires a matching seal)
)

// FrameError is the typed form of a decode failure: which message was
// being decoded and what went wrong (truncated payload, trailing
// bytes, wrong type byte). It matches errors.Is(err, ErrFrame), so
// existing callers keep working while version-skew diagnostics become
// legible.
type FrameError struct {
	Want string // message the decoder expected
	Got  byte   // type byte actually seen (0 when the payload was empty)
	Msg  string // what went wrong
}

func (e *FrameError) Error() string {
	return fmt.Sprintf("soda: malformed wire frame: decoding %s: %s", e.Want, e.Msg)
}

func (e *FrameError) Is(target error) bool { return target == ErrFrame }

// RemoteError is a peer's explicit msgError frame: the server telling
// a (possibly version-skewed) client what it objected to, instead of
// silently dropping the connection.
type RemoteError struct {
	Msg string
}

func (e *RemoteError) Error() string { return "soda: server error: " + e.Msg }

// validateKey rejects keys the wire format cannot carry. Empty keys
// are refused too: "no key" is indistinguishable from a decoding bug.
func validateKey(key string) error {
	if key == "" {
		return fmt.Errorf("%w: empty key", ErrFrame)
	}
	if len(key) > maxKeyLen {
		return fmt.Errorf("%w: %d byte key exceeds %d", ErrFrame, len(key), maxKeyLen)
	}
	return nil
}

// framePool recycles payload buffers for the hot encode paths. Buffers
// are handed to writeFrame and returned to the pool by the sender;
// oversized ones (a huge value passed through once) are dropped rather
// than pinned.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

const maxPooledFrame = 64 << 10

func getFrame() *[]byte {
	bp := framePool.Get().(*[]byte)
	*bp = (*bp)[:0]
	return bp
}

func putFrame(bp *[]byte) {
	if cap(*bp) > maxPooledFrame {
		return
	}
	framePool.Put(bp)
}

// writeFrame writes one length-prefixed frame.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("%w: %d byte frame exceeds %d", ErrFrame, len(payload), maxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame, reusing buf when it has the capacity.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("%w: frame length %d", ErrFrame, n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// peekHeader reads the fixed header without consuming anything: the
// demux pump routes a frame by (type, request-id) before the full
// decoder runs.
func peekHeader(payload []byte) (typ byte, req uint64, ok bool) {
	if len(payload) < headerLen {
		return 0, 0, false
	}
	return payload[0], binary.BigEndian.Uint64(payload[1:9]), true
}

// Append-style encoders. Each appends a complete payload (header
// included) to b and returns the extended slice, so hot paths encode
// into pooled buffers.

func appendHeader(b []byte, typ byte, req, epoch uint64) []byte {
	b = append(b, typ)
	b = binary.BigEndian.AppendUint64(b, req)
	return binary.BigEndian.AppendUint64(b, epoch)
}

func appendTag(b []byte, t Tag) []byte {
	// Writer ids are bounded at the constructors (maxWriterID) and by
	// the uint16 length on ingest, so truncation here would indicate a
	// forged tag: clamp it to the empty writer rather than emit a
	// frame whose length field lies about the bytes that follow.
	w := t.Writer
	if len(w) > 0xFFFF {
		w = ""
	}
	b = binary.BigEndian.AppendUint64(b, t.TS)
	b = binary.BigEndian.AppendUint16(b, uint16(len(w)))
	return append(b, w...)
}

func appendKey(b []byte, key string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(key)))
	return append(b, key...)
}

func appendBytes(b, p []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(p)))
	return append(b, p...)
}

func appendGetTag(b []byte, req, epoch uint64, key string) []byte {
	return appendKey(appendHeader(b, msgGetTag, req, epoch), key)
}

func appendTagResp(b []byte, req, epoch uint64, t Tag) []byte {
	return appendTag(appendHeader(b, msgTagResp, req, epoch), t)
}

func appendPutData(b []byte, req, epoch uint64, key string, t Tag, elem []byte, vlen int) []byte {
	b = appendKey(appendHeader(b, msgPutData, req, epoch), key)
	b = appendTag(b, t)
	b = binary.BigEndian.AppendUint32(b, uint32(vlen))
	return appendBytes(b, elem)
}

func appendAck(b []byte, req, epoch uint64) []byte { return appendHeader(b, msgAck, req, epoch) }

func appendGetData(b []byte, req, epoch uint64, key, readerID string) []byte {
	b = appendKey(appendHeader(b, msgGetData, req, epoch), key)
	return appendBytes(b, []byte(readerID))
}

// appendData stamps the delivery's own epoch into the header: a relay
// element belongs to the configuration the server held it under.
func appendData(b []byte, req uint64, d Delivery) []byte {
	b = appendTag(appendHeader(b, msgData, req, d.Epoch), d.Tag)
	b = binary.BigEndian.AppendUint32(b, uint32(d.VLen))
	var initial byte
	if d.Initial {
		initial = 1
	}
	b = append(b, initial)
	return appendBytes(b, d.Elem)
}

func appendReaderDone(b []byte, req, epoch uint64) []byte {
	return appendHeader(b, msgReaderDone, req, epoch)
}

func appendGetElem(b []byte, req, epoch uint64, key string) []byte {
	return appendKey(appendHeader(b, msgGetElem, req, epoch), key)
}

func appendElemResp(b []byte, req, epoch uint64, t Tag, elem []byte, vlen int) []byte {
	b = appendTag(appendHeader(b, msgElemResp, req, epoch), t)
	b = binary.BigEndian.AppendUint32(b, uint32(vlen))
	return appendBytes(b, elem)
}

func appendRepairPut(b []byte, req, epoch uint64, key string, t Tag, elem []byte, vlen int) []byte {
	b = appendKey(appendHeader(b, msgRepairPut, req, epoch), key)
	b = appendTag(b, t)
	b = binary.BigEndian.AppendUint32(b, uint32(vlen))
	return appendBytes(b, elem)
}

func appendRepairResp(b []byte, req, epoch uint64, accepted bool) []byte {
	var a byte
	if accepted {
		a = 1
	}
	return append(appendHeader(b, msgRepairResp, req, epoch), a)
}

func appendKeysReq(b []byte, req, epoch uint64) []byte { return appendHeader(b, msgKeys, req, epoch) }

func appendKeysResp(b []byte, req, epoch uint64, keys []string) []byte {
	b = appendHeader(b, msgKeysResp, req, epoch)
	b = binary.BigEndian.AppendUint32(b, uint32(len(keys)))
	for _, k := range keys {
		b = appendKey(b, k)
	}
	return b
}

// appendEpochNack encodes a server's epoch rejection: the header epoch
// is the server's active epoch, the body the epoch the client should
// retry with and whether a flip is in progress.
func appendEpochNack(b []byte, req uint64, st EpochStatus, want uint64) []byte {
	b = appendHeader(b, msgEpochNack, req, st.Epoch)
	b = binary.BigEndian.AppendUint64(b, want)
	var sealed byte
	if st.Sealed {
		sealed = 1
	}
	return append(b, sealed)
}

func appendReconfig(b []byte, req uint64, op ReconfigOp, epoch uint64, n, k int) []byte {
	b = appendHeader(b, msgReconfig, req, epochNone)
	b = append(b, byte(op))
	b = binary.BigEndian.AppendUint64(b, epoch)
	b = binary.BigEndian.AppendUint16(b, uint16(n))
	return binary.BigEndian.AppendUint16(b, uint16(k))
}

func appendReconfigResp(b []byte, req uint64, st EpochStatus) []byte {
	b = appendHeader(b, msgReconfigResp, req, st.Epoch)
	b = binary.BigEndian.AppendUint64(b, st.Epoch)
	b = binary.BigEndian.AppendUint64(b, st.Pending)
	var sealed byte
	if st.Sealed {
		sealed = 1
	}
	b = append(b, sealed)
	b = binary.BigEndian.AppendUint16(b, uint16(st.N))
	return binary.BigEndian.AppendUint16(b, uint16(st.K))
}

// maxErrorMsg caps the error-frame text a peer can make us relay or
// store.
const maxErrorMsg = 512

func appendError(b []byte, req uint64, msg string) []byte {
	if len(msg) > maxErrorMsg {
		msg = msg[:maxErrorMsg]
	}
	return appendBytes(appendHeader(b, msgError, req, epochNone), []byte(msg))
}

// cursor is a bounds-checked payload parser: every getter records an
// overrun instead of panicking, and err() reports it once at the end.
type cursor struct {
	b      []byte
	failed bool
}

func (c *cursor) take(n int) []byte {
	if c.failed || len(c.b) < n {
		c.failed = true
		return nil
	}
	out := c.b[:n]
	c.b = c.b[n:]
	return out
}

func (c *cursor) u8() byte {
	p := c.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (c *cursor) u16() uint16 {
	p := c.take(2)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint16(p)
}

func (c *cursor) u32() uint32 {
	p := c.take(4)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint32(p)
}

func (c *cursor) u64() uint64 {
	p := c.take(8)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint64(p)
}

func (c *cursor) tag() Tag {
	ts := c.u64()
	return Tag{TS: ts, Writer: string(c.take(int(c.u16())))}
}

// key parses a uint16 length-prefixed register key, enforcing the wire
// bound so an adversarial length cannot smuggle a payload-sized name.
func (c *cursor) key() string {
	n := c.u16()
	if n == 0 || n > maxKeyLen {
		c.failed = true
		return ""
	}
	return string(c.take(int(n)))
}

// view returns a length-prefixed byte string as a borrow of the
// payload: valid only while the caller keeps the buffer it is parsing.
func (c *cursor) view() []byte {
	return c.take(int(c.u32()))
}

// bytes returns a copy of a length-prefixed byte string, so decoded
// messages never alias a transport read buffer.
func (c *cursor) bytes() []byte {
	return append([]byte(nil), c.view()...)
}

// err reports a typed decode failure for the named message: truncated
// payload (an overrun getter) or trailing bytes both mean the peer and
// we disagree about the message's shape.
func (c *cursor) err(want string) error {
	if c.failed {
		return &FrameError{Want: want, Msg: "truncated payload"}
	}
	if len(c.b) != 0 {
		return &FrameError{Want: want, Msg: fmt.Sprintf("%d trailing bytes", len(c.b))}
	}
	return nil
}

// Decoders. Each checks the type byte itself so dispatch sites stay
// honest about what they expect, and each surfaces a peer's explicit
// msgError frame as a *RemoteError — a version-skewed peer degrades
// into a legible error instead of a desynced stream. Every decoder
// returns the request id from the header so unary callers can detect a
// response routed to the wrong exchange.

// header begins decoding: it consumes the type byte, request id, and
// epoch, intercepting error and epoch-nack frames and reporting
// unexpected types as typed errors.
func header(c *cursor, want byte, name string) (uint64, uint64, error) {
	if len(c.b) == 0 {
		return 0, 0, &FrameError{Want: name, Msg: "empty payload"}
	}
	got := c.u8()
	req := c.u64()
	epoch := c.u64()
	if c.failed {
		return 0, 0, &FrameError{Want: name, Got: got, Msg: "truncated header"}
	}
	if got == want {
		return req, epoch, nil
	}
	if got == msgError {
		return req, epoch, decodeErrorTail(c)
	}
	if got == msgEpochNack {
		return req, epoch, decodeEpochNackTail(c, epoch)
	}
	return req, epoch, &FrameError{Want: name, Got: got, Msg: fmt.Sprintf("unexpected message type %#x", got)}
}

// decodeEpochNackTail parses the remainder of an msgEpochNack payload
// (the header already consumed; serverEpoch came from it) into the
// typed rejection every client path surfaces.
func decodeEpochNackTail(c *cursor, serverEpoch uint64) error {
	want := c.u64()
	sealed := c.u8() == 1
	if err := c.err("epoch-nack"); err != nil {
		return err
	}
	return &StaleEpochError{Server: -1, ServerEpoch: serverEpoch, Want: want, Sealed: sealed}
}

// decodeErrorTail parses the remainder of an msgError payload (the
// header already consumed).
func decodeErrorTail(c *cursor) error {
	msg := string(c.bytes())
	if err := c.err("error"); err != nil {
		return err
	}
	if len(msg) > maxErrorMsg {
		msg = msg[:maxErrorMsg]
	}
	return &RemoteError{Msg: msg}
}

// decodeError parses an msgError payload, returning the echoed
// request id and the *RemoteError (or a FrameError when the frame is
// not actually an error frame).
func decodeError(payload []byte) (uint64, error) {
	c := &cursor{b: payload}
	if len(c.b) == 0 {
		return 0, &FrameError{Want: "error", Msg: "empty payload"}
	}
	got := c.u8()
	req := c.u64()
	epoch := c.u64()
	if c.failed {
		return 0, &FrameError{Want: "error", Got: got, Msg: "truncated header"}
	}
	switch got {
	case msgError:
		return req, decodeErrorTail(c)
	case msgEpochNack:
		return req, decodeEpochNackTail(c, epoch)
	}
	return req, &FrameError{Want: "error", Got: got, Msg: fmt.Sprintf("unexpected message type %#x", got)}
}

func decodeGetTag(payload []byte) (uint64, uint64, string, error) {
	c := &cursor{b: payload}
	req, epoch, err := header(c, msgGetTag, "get-tag")
	if err != nil {
		return req, epoch, "", err
	}
	key := c.key()
	return req, epoch, key, c.err("get-tag")
}

func decodeTagResp(payload []byte) (uint64, Tag, error) {
	c := &cursor{b: payload}
	req, _, err := header(c, msgTagResp, "tag-resp")
	if err != nil {
		return req, Tag{}, err
	}
	t := c.tag()
	return req, t, c.err("tag-resp")
}

// decodeTaggedElem parses the shared {tag, vlen, elem} tail of
// put-data, elem-resp, and repair-put. The element borrows the payload
// (the server copies a put's element anyway); elem-resp copies it out.
func decodeTaggedElem(c *cursor, name string) (Tag, []byte, int, error) {
	t := c.tag()
	vlen := c.u32()
	elem := c.view()
	if vlen > math.MaxInt32 {
		c.failed = true
	}
	return t, elem, int(vlen), c.err(name)
}

func decodePutData(payload []byte) (uint64, uint64, string, Tag, []byte, int, error) {
	c := &cursor{b: payload}
	req, epoch, err := header(c, msgPutData, "put-data")
	if err != nil {
		return req, epoch, "", Tag{}, nil, 0, err
	}
	key := c.key()
	t, elem, vlen, err := decodeTaggedElem(c, "put-data")
	return req, epoch, key, t, elem, vlen, err
}

func decodeGetData(payload []byte) (uint64, uint64, string, string, error) {
	c := &cursor{b: payload}
	req, epoch, err := header(c, msgGetData, "get-data")
	if err != nil {
		return req, epoch, "", "", err
	}
	key := c.key()
	rid := string(c.bytes())
	return req, epoch, key, rid, c.err("get-data")
}

func decodeData(payload []byte) (uint64, Delivery, error) {
	c := &cursor{b: payload}
	req, epoch, err := header(c, msgData, "data")
	if err != nil {
		return req, Delivery{}, err
	}
	var d Delivery
	d.Epoch = epoch
	d.Tag = c.tag()
	vlen := c.u32()
	if vlen > math.MaxInt32 {
		c.failed = true
	}
	d.VLen = int(vlen)
	d.Initial = c.u8() == 1
	d.Elem = c.bytes()
	return req, d, c.err("data")
}

func decodeReaderDone(payload []byte) (uint64, error) {
	c := &cursor{b: payload}
	req, _, err := header(c, msgReaderDone, "reader-done")
	if err != nil {
		return req, err
	}
	return req, c.err("reader-done")
}

func decodeGetElem(payload []byte) (uint64, uint64, string, error) {
	c := &cursor{b: payload}
	req, epoch, err := header(c, msgGetElem, "get-elem")
	if err != nil {
		return req, epoch, "", err
	}
	key := c.key()
	return req, epoch, key, c.err("get-elem")
}

func decodeElemResp(payload []byte) (uint64, Tag, []byte, int, error) {
	c := &cursor{b: payload}
	req, _, err := header(c, msgElemResp, "elem-resp")
	if err != nil {
		return req, Tag{}, nil, 0, err
	}
	t, elem, vlen, err := decodeTaggedElem(c, "elem-resp")
	return req, t, append([]byte(nil), elem...), vlen, err
}

func decodeRepairPut(payload []byte) (uint64, uint64, string, Tag, []byte, int, error) {
	c := &cursor{b: payload}
	req, epoch, err := header(c, msgRepairPut, "repair-put")
	if err != nil {
		return req, epoch, "", Tag{}, nil, 0, err
	}
	key := c.key()
	t, elem, vlen, err := decodeTaggedElem(c, "repair-put")
	return req, epoch, key, t, elem, vlen, err
}

func decodeAck(payload []byte) (uint64, error) {
	c := &cursor{b: payload}
	req, _, err := header(c, msgAck, "ack")
	if err != nil {
		return req, err
	}
	return req, c.err("ack")
}

func decodeRepairResp(payload []byte) (uint64, bool, error) {
	c := &cursor{b: payload}
	req, _, err := header(c, msgRepairResp, "repair-resp")
	if err != nil {
		return req, false, err
	}
	accepted := c.u8() == 1
	return req, accepted, c.err("repair-resp")
}

func decodeKeysReq(payload []byte) (uint64, uint64, error) {
	c := &cursor{b: payload}
	req, epoch, err := header(c, msgKeys, "keys")
	if err != nil {
		return req, epoch, err
	}
	return req, epoch, c.err("keys")
}

func decodeKeysResp(payload []byte) (uint64, []string, error) {
	c := &cursor{b: payload}
	req, _, err := header(c, msgKeysResp, "keys-resp")
	if err != nil {
		return req, nil, err
	}
	n := c.u32()
	if n > maxKeys {
		c.failed = true
	}
	var keys []string
	if !c.failed && n > 0 {
		keys = make([]string, 0, min(int(n), 1024))
		for i := uint32(0); i < n && !c.failed; i++ {
			keys = append(keys, c.key())
		}
	}
	if err := c.err("keys-resp"); err != nil {
		return req, nil, err
	}
	return req, keys, nil
}

// decodeEpochNack parses a standalone msgEpochNack frame (the demux
// pump routes one to a stream it must tear down).
func decodeEpochNack(payload []byte) (uint64, error) {
	c := &cursor{b: payload}
	if len(c.b) == 0 {
		return 0, &FrameError{Want: "epoch-nack", Msg: "empty payload"}
	}
	got := c.u8()
	req := c.u64()
	epoch := c.u64()
	if c.failed {
		return 0, &FrameError{Want: "epoch-nack", Got: got, Msg: "truncated header"}
	}
	if got != msgEpochNack {
		return req, &FrameError{Want: "epoch-nack", Got: got, Msg: fmt.Sprintf("unexpected message type %#x", got)}
	}
	return req, decodeEpochNackTail(c, epoch)
}

func decodeReconfig(payload []byte) (uint64, ReconfigOp, uint64, int, int, error) {
	c := &cursor{b: payload}
	req, _, err := header(c, msgReconfig, "reconfig")
	if err != nil {
		return req, 0, 0, 0, 0, err
	}
	op := ReconfigOp(c.u8())
	epoch := c.u64()
	n := int(c.u16())
	k := int(c.u16())
	return req, op, epoch, n, k, c.err("reconfig")
}

func decodeReconfigResp(payload []byte) (uint64, EpochStatus, error) {
	c := &cursor{b: payload}
	req, _, err := header(c, msgReconfigResp, "reconfig-resp")
	if err != nil {
		return req, EpochStatus{}, err
	}
	var st EpochStatus
	st.Epoch = c.u64()
	st.Pending = c.u64()
	st.Sealed = c.u8() == 1
	st.N = int(c.u16())
	st.K = int(c.u16())
	return req, st, c.err("reconfig-resp")
}
