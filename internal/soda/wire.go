package soda

import (
	"bufio"
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

// maxReaderID bounds a get-data's reader id, which the server keeps in the
// key's registration while the read lasts. Its uint32 length field allows
// a frame's worth; like a key, it is a name.
const maxReaderID = 255

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
	reconfigFreeze   ReconfigOp = 3 // stop minting tags ahead of a seal for the target
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
// are handed to a connWriter and returned to the pool by the sender;
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

// readFrame reads one frame, reusing buf when it has the capacity. The
// length prefix is read in place in r's buffer (a local array handed to an
// io.Reader would escape: an allocation per frame); a stream that ends
// inside it is io.ErrUnexpectedEOF, as one that ends inside the payload.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	r.Discard(4) // buffered by Peek: cannot fail
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

// msgNames names each message type in diagnostics: FrameError.Want and
// the server's "malformed <name>" rejections. Indexable by any byte.
var msgNames = [256]string{
	msgGetTag: "get-tag", msgTagResp: "tag-resp", msgPutData: "put-data", msgAck: "ack",
	msgGetData: "get-data", msgData: "data", msgReaderDone: "reader-done",
	msgGetElem: "get-elem", msgElemResp: "elem-resp", msgRepairPut: "repair-put",
	msgRepairResp: "repair-resp", msgError: "error", msgKeys: "keys", msgKeysResp: "keys-resp",
	msgEpochNack: "epoch-nack", msgReconfig: "reconfig", msgReconfigResp: "reconfig-resp",
}

// request is any client→server message. The type byte chooses which
// fields travel:
//
//	get-tag, get-elem     {key}
//	put-data, repair-put  {key, tag, vlen, elem}
//	get-data              {key, reader}
//	reader-done, keys     {}
//	reconfig              {op, target, n, k}; the header epoch is epochNone
type request struct {
	typ    byte
	id     uint64
	epoch  uint64
	key    string
	tag    Tag
	vlen   int
	elem   []byte // decoded as a borrow of the frame: the server copies what it keeps
	reader string
	op     ReconfigOp
	target uint64 // the epoch a reconfig op moves the server towards
	n, k   int
}

// response is any server→client message. The type byte chooses which
// fields travel:
//
//	tag-resp       {tag}
//	ack            {}
//	data           {tag, vlen, initial, elem}; the header epoch is the delivery's
//	elem-resp      {tag, vlen, elem}
//	repair-resp    {accepted}
//	keys-resp      {count, key...}
//	reconfig-resp  {status}
//	error          {msg}; the header epoch is epochNone
//	epoch-nack     {want, sealed}; the header epoch is the server's
//
// decodeResponse never fills msg, want or sealed: an error or epoch-nack
// frame decodes to the typed error it stands for.
type response struct {
	typ      byte
	id       uint64
	epoch    uint64
	tag      Tag
	vlen     int
	elem     []byte // decoded as a copy: it outlives the transport's read buffer
	initial  bool
	accepted bool
	keys     []string
	status   EpochStatus
	msg      string
	want     uint64 // the epoch a NACKed client should retry with
	sealed   bool
}

// header parses the fixed payload prefix. It is the only place a frame
// header is read: both decoders start here, and the client's demux pump
// routes a frame by (type, request id) with it before any body is
// decoded. want names the message the caller expected, for the error.
func header(payload []byte, want string) (typ byte, id, epoch uint64, body []byte, err error) {
	if len(payload) == 0 {
		return 0, 0, 0, nil, &FrameError{Want: want, Msg: "empty payload"}
	}
	if len(payload) < headerLen {
		return 0, 0, 0, nil, &FrameError{Want: want, Got: payload[0], Msg: "truncated header"}
	}
	return payload[0], binary.BigEndian.Uint64(payload[1:9]), binary.BigEndian.Uint64(payload[9:17]), payload[headerLen:], nil
}

// Append-style encoders: each appends to b and returns the extended
// slice, so hot paths encode into pooled buffers. appendRequest and
// appendResponse append a complete payload, header included; the field
// encoders they are built from are shared with the WAL and snapshots.

func appendHeader(b []byte, typ byte, req, epoch uint64) []byte {
	b = append(b, typ)
	b = binary.BigEndian.AppendUint64(b, req)
	return binary.BigEndian.AppendUint64(b, epoch)
}

func appendTag(b []byte, t Tag) []byte {
	// Writer ids are bounded at the constructors and by the wire
	// decoders (maxWriterID), so truncation here would indicate a
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

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendPut appends a stored element, key | tag | uint32 vlen | elem:
// the body of a put-data or repair-put frame, of a WAL put or repair
// record, and of a snapshot entry.
func appendPut(b []byte, key string, t Tag, vlen int, elem []byte) []byte {
	b = appendTag(appendKey(b, key), t)
	b = binary.BigEndian.AppendUint32(b, uint32(vlen))
	return appendBytes(b, elem)
}

// appendEpochState appends a server's durable epoch state, uint64 epoch
// | uint64 pending | byte sealed | uint16 n | uint16 k | uint16 pn |
// uint16 pk: a WAL epoch record's body and a snapshot's header.
func appendEpochState(b []byte, est epochState) []byte {
	b = binary.BigEndian.AppendUint64(b, est.epoch)
	b = binary.BigEndian.AppendUint64(b, est.pending)
	b = appendBool(b, est.sealed)
	b = binary.BigEndian.AppendUint16(b, uint16(est.n))
	b = binary.BigEndian.AppendUint16(b, uint16(est.k))
	b = binary.BigEndian.AppendUint16(b, uint16(est.pn))
	return binary.BigEndian.AppendUint16(b, uint16(est.pk))
}

// maxErrorMsg caps the error-frame text a peer can make us relay or
// store.
const maxErrorMsg = 512

// appendRequest appends r's complete payload, header included, to b.
func appendRequest(b []byte, r *request) []byte {
	b = appendHeader(b, r.typ, r.id, r.epoch)
	switch r.typ {
	case msgGetTag, msgGetElem:
		b = appendKey(b, r.key)
	case msgPutData, msgRepairPut:
		b = appendPut(b, r.key, r.tag, r.vlen, r.elem)
	case msgGetData:
		b = appendKey(b, r.key)
		b = binary.BigEndian.AppendUint32(b, uint32(len(r.reader)))
		b = append(b, r.reader...)
	case msgReconfig:
		b = append(b, byte(r.op))
		b = binary.BigEndian.AppendUint64(b, r.target)
		b = binary.BigEndian.AppendUint16(b, uint16(r.n))
		b = binary.BigEndian.AppendUint16(b, uint16(r.k))
	}
	return b
}

// appendResponse appends r's complete payload, header included, to b.
func appendResponse(b []byte, r *response) []byte {
	b = appendHeader(b, r.typ, r.id, r.epoch)
	switch r.typ {
	case msgTagResp:
		b = appendTag(b, r.tag)
	case msgData, msgElemResp:
		b = appendTag(b, r.tag)
		b = binary.BigEndian.AppendUint32(b, uint32(r.vlen))
		if r.typ == msgData {
			b = appendBool(b, r.initial)
		}
		b = appendBytes(b, r.elem)
	case msgRepairResp:
		b = appendBool(b, r.accepted)
	case msgKeysResp:
		b = binary.BigEndian.AppendUint32(b, uint32(len(r.keys)))
		for _, k := range r.keys {
			b = appendKey(b, k)
		}
	case msgReconfigResp:
		b = binary.BigEndian.AppendUint64(b, r.status.Epoch)
		b = binary.BigEndian.AppendUint64(b, r.status.Pending)
		b = appendBool(b, r.status.Sealed)
		b = binary.BigEndian.AppendUint16(b, uint16(r.status.N))
		b = binary.BigEndian.AppendUint16(b, uint16(r.status.K))
	case msgError:
		msg := r.msg[:min(len(r.msg), maxErrorMsg)]
		b = binary.BigEndian.AppendUint32(b, uint32(len(msg)))
		b = append(b, msg...)
	case msgEpochNack:
		b = binary.BigEndian.AppendUint64(b, r.want)
		b = appendBool(b, r.sealed)
	}
	return b
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

// wireTag refuses a tag whose writer id exceeds maxWriterID. The two wire
// decoders bound every tag they parse with it; the WAL and snapshot
// parsers do not, so a log written before the bound replays as it did.
func (c *cursor) wireTag(t Tag) Tag {
	if len(t.Writer) > maxWriterID {
		c.failed = true
		return Tag{}
	}
	return t
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

// readerID parses a reader id, refusing an empty or oversized one uncopied.
func (c *cursor) readerID() string {
	b := c.view()
	if len(b) == 0 || len(b) > maxReaderID {
		c.failed = true
		return ""
	}
	return string(b)
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

// flag parses a one-byte boolean; any value but 0 or 1 is malformed.
func (c *cursor) flag() bool {
	v := c.u8()
	if v > 1 {
		c.failed = true
	}
	return v == 1
}

// vlen parses a value length, refusing one no int32 could hold.
func (c *cursor) vlen() int {
	v := c.u32()
	if v > math.MaxInt32 {
		c.failed = true
	}
	return int(v)
}

// put parses appendPut's fields; elem borrows the payload.
func (c *cursor) put() (key string, t Tag, vlen int, elem []byte) {
	key = c.key()
	t = c.tag()
	vlen = c.vlen()
	elem = c.view()
	return key, t, vlen, elem
}

// epochState parses appendEpochState's fields.
func (c *cursor) epochState() epochState {
	var est epochState
	est.epoch = c.u64()
	est.pending = c.u64()
	est.sealed = c.flag()
	est.n = int(c.u16())
	est.k = int(c.u16())
	est.pn = int(c.u16())
	est.pk = int(c.u16())
	return est
}

// decodeRequest parses any client→server payload into r. The header
// fields of r are set whenever the header itself parses, so a server can
// answer a request with a malformed body on its own request id.
func decodeRequest(payload []byte, r *request) error {
	typ, id, epoch, body, err := header(payload, "request")
	if err != nil {
		return err
	}
	r.typ, r.id, r.epoch = typ, id, epoch
	c := cursor{b: body}
	switch typ {
	case msgGetTag, msgGetElem:
		r.key = c.key()
	case msgPutData, msgRepairPut:
		r.key, r.tag, r.vlen, r.elem = c.put()
		r.tag = c.wireTag(r.tag)
	case msgGetData:
		r.key = c.key()
		r.reader = c.readerID()
	case msgReaderDone, msgKeys:
	case msgReconfig:
		r.op = ReconfigOp(c.u8())
		r.target = c.u64()
		r.n = int(c.u16())
		r.k = int(c.u16())
	default:
		return &FrameError{Want: "request", Got: typ, Msg: fmt.Sprintf("unexpected message type %#x", typ)}
	}
	return c.err(msgNames[typ])
}

// decodeResponse parses a server→client payload the caller expects to
// be of type want into r. It is the one place a peer's explicit error
// frame becomes a *RemoteError and an epoch rejection a
// *StaleEpochError, whatever was expected — a version-skewed peer
// degrades into a legible error instead of a desynced stream. r's header
// fields are set whenever the header parses, so the caller can still see
// which exchange a failed frame belonged to.
func decodeResponse(payload []byte, want byte, r *response) error {
	name := msgNames[want]
	typ, id, epoch, body, err := header(payload, name)
	if err != nil {
		return err
	}
	r.typ, r.id, r.epoch = typ, id, epoch
	c := cursor{b: body}
	switch typ {
	case msgError:
		msg := string(c.view())
		if err := c.err("error"); err != nil {
			return err
		}
		return &RemoteError{Msg: msg[:min(len(msg), maxErrorMsg)]}
	case msgEpochNack:
		se := &StaleEpochError{Server: -1, ServerEpoch: epoch, Want: c.u64(), Sealed: c.flag()}
		if err := c.err("epoch-nack"); err != nil {
			return err
		}
		return se
	}
	if typ != want {
		return &FrameError{Want: name, Got: typ, Msg: fmt.Sprintf("unexpected message type %#x", typ)}
	}
	switch typ {
	case msgTagResp:
		r.tag = c.wireTag(c.tag())
	case msgAck:
	case msgData, msgElemResp:
		r.tag = c.wireTag(c.tag())
		r.vlen = c.vlen()
		if typ == msgData {
			r.initial = c.flag()
		}
		r.elem = c.bytes()
	case msgRepairResp:
		r.accepted = c.flag()
	case msgKeysResp:
		n := c.u32()
		if n > maxKeys {
			c.failed = true
		}
		if !c.failed && n > 0 {
			r.keys = make([]string, 0, min(int(n), 1024))
			for i := uint32(0); i < n && !c.failed; i++ {
				r.keys = append(r.keys, c.key())
			}
		}
	case msgReconfigResp:
		r.status = EpochStatus{Epoch: c.u64(), Pending: c.u64(), Sealed: c.flag(), N: int(c.u16()), K: int(c.u16())}
	default:
		return &FrameError{Want: name, Got: typ, Msg: "not a response type"}
	}
	return c.err(name)
}
