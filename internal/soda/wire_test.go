package soda

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestTagOrder(t *testing.T) {
	a := Tag{}
	b := Tag{TS: 1, Writer: "w1"}
	c := Tag{TS: 1, Writer: "w2"}
	d := Tag{TS: 2, Writer: "w1"}
	order := []Tag{a, b, c, d}
	for i := range order {
		for j := range order {
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := order[i].Compare(order[j]); got != want {
				t.Fatalf("Compare(%v, %v) = %d, want %d", order[i], order[j], got, want)
			}
		}
	}
	if !a.IsZero() || b.IsZero() {
		t.Fatal("IsZero misclassifies")
	}
	if next := c.Next("w9"); next.TS != 2 || next.Writer != "w9" || !c.Less(next) {
		t.Fatalf("Next = %v", next)
	}
	// Next beats every tag sharing the observed timestamp, whatever
	// the writer ids: that is what makes minted tags fresh.
	if !c.Less(b.Next("w0")) {
		t.Fatal("Next(w0) after (1,w1) must exceed (1,w2)")
	}
}

// goldenFrames pins the wire format: one payload per message type, as
// the per-message encoders of PR 12 (the last commit before the codec
// was collapsed into appendRequest/appendResponse) produced it, with the
// fields it must decode to. Request id 0x0102030405060708, epoch 9
// (reconfig and error frames carry epochNone by definition), tag
// (5, "w1"), a 3-byte element, vlen 7.
var (
	goldenTag  = Tag{TS: 5, Writer: "w1"}
	goldenElem = []byte{0xAA, 0xBB, 0xCC}
	goldenStat = EpochStatus{Epoch: 9, Pending: 10, Sealed: true, N: 5, K: 3}
)

const goldenID, goldenEpoch = uint64(0x0102030405060708), uint64(9)

var goldenRequests = []struct {
	hex string
	req request
}{
	{"010102030405060708000000000000000900036b2f31",
		request{typ: msgGetTag, key: "k/1"}},
	{"030102030405060708000000000000000900036b2f310000000000000005000277310000000700000003aabbcc",
		request{typ: msgPutData, key: "k/1", tag: goldenTag, elem: goldenElem, vlen: 7}},
	{"050102030405060708000000000000000900036b2f3100000003722331",
		request{typ: msgGetData, key: "k/1", reader: "r#1"}},
	{"0701020304050607080000000000000009",
		request{typ: msgReaderDone}},
	{"080102030405060708000000000000000900036b2f31",
		request{typ: msgGetElem, key: "k/1"}},
	{"0a0102030405060708000000000000000900036b2f310000000000000005000277310000000700000003aabbcc",
		request{typ: msgRepairPut, key: "k/1", tag: goldenTag, elem: goldenElem, vlen: 7}},
	{"0d01020304050607080000000000000009",
		request{typ: msgKeys}},
	{"100102030405060708000000000000000001000000000000000a00050003",
		request{typ: msgReconfig, op: ReconfigSeal, target: 10, n: 5, k: 3}},
}

var goldenResponses = []struct {
	hex  string
	resp response
}{
	{"0201020304050607080000000000000009000000000000000500027731",
		response{typ: msgTagResp, tag: goldenTag}},
	{"0401020304050607080000000000000009",
		response{typ: msgAck}},
	{"0601020304050607080000000000000009000000000000000500027731000000070100000003aabbcc",
		response{typ: msgData, tag: goldenTag, elem: goldenElem, vlen: 7, initial: true}},
	{"09010203040506070800000000000000090000000000000005000277310000000700000003aabbcc",
		response{typ: msgElemResp, tag: goldenTag, elem: goldenElem, vlen: 7}},
	{"0b0102030405060708000000000000000901",
		response{typ: msgRepairResp, accepted: true}},
	{"0c0102030405060708000000000000000000000004626f6f6d",
		response{typ: msgError, msg: "boom"}},
	{"0e01020304050607080000000000000009000000020001610003622f63",
		response{typ: msgKeysResp, keys: []string{"a", "b/c"}}},
	{"0f01020304050607080000000000000009000000000000000a01",
		response{typ: msgEpochNack, want: 10, sealed: true}},
	{"11010203040506070800000000000000090000000000000009000000000000000a0100050003",
		response{typ: msgReconfigResp, status: goldenStat}},
}

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWireGolden: the codec reproduces every golden frame byte for byte
// and decodes each back to the fields it was built from; error and
// epoch-nack frames decode to their typed errors.
func TestWireGolden(t *testing.T) {
	seen := map[byte]bool{}
	for _, g := range goldenRequests {
		seen[g.req.typ] = true
		want := g.req
		want.id, want.epoch = goldenID, goldenEpoch
		if want.typ == msgReconfig {
			want.epoch = epochNone
		}
		frame := mustHex(t, g.hex)
		if got := appendRequest(nil, &want); !bytes.Equal(got, frame) {
			t.Errorf("%s encodes to\n %x, golden\n %x", msgNames[want.typ], got, frame)
		}
		var got request
		if err := decodeRequest(frame, &got); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s decodes to %+v, %v; want %+v", msgNames[want.typ], got, err, want)
		}
	}
	for _, g := range goldenResponses {
		seen[g.resp.typ] = true
		want := g.resp
		want.id, want.epoch = goldenID, goldenEpoch
		if want.typ == msgError {
			want.epoch = epochNone
		}
		frame := mustHex(t, g.hex)
		if got := appendResponse(nil, &want); !bytes.Equal(got, frame) {
			t.Errorf("%s encodes to\n %x, golden\n %x", msgNames[want.typ], got, frame)
		}
		var got response
		err := decodeResponse(frame, want.typ, &got)
		switch want.typ {
		case msgError:
			var re *RemoteError
			if !errors.As(err, &re) || re.Msg != want.msg || got.id != goldenID {
				t.Errorf("error frame decodes to %+v, %v", got, err)
			}
		case msgEpochNack:
			var se *StaleEpochError
			if !errors.As(err, &se) || *se != (StaleEpochError{Server: -1, ServerEpoch: goldenEpoch, Want: 10, Sealed: true}) || got.id != goldenID {
				t.Errorf("epoch-nack frame decodes to %+v, %v", got, err)
			}
		default:
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%s decodes to %+v, %v; want %+v", msgNames[want.typ], got, err, want)
			}
		}
	}
	for typ := msgGetTag; typ <= msgReconfigResp; typ++ {
		if !seen[typ] {
			t.Errorf("no golden frame for %s", msgNames[typ])
		}
	}
}

// TestWireRoundTrip frames and parses message types through
// writeFrame/readFrame, checking the request id echoes through each one,
// plus the shapes the goldens do not cover: empty elements, empty and
// maximal key lists, both repair verdicts.
func TestWireRoundTrip(t *testing.T) {
	tag := Tag{TS: 77, Writer: "writer-α"}
	elem := []byte{1, 2, 3, 4, 5}
	const key = "accounts/42"
	const id = uint64(0xDEADBEEF01)
	const ep = uint64(7)

	framed := func(payload []byte) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := writeFrame(&buf, payload); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
		got, err := readFrame(&buf, nil)
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		typ, r, _, _, err := header(got, "any")
		if err != nil || typ != payload[0] || r != id {
			t.Fatalf("header = (%#x, %d, %v), want (%#x, %d, nil)", typ, r, err, payload[0], id)
		}
		return got
	}
	for _, want := range []request{
		{typ: msgGetTag, id: id, epoch: ep, key: key},
		{typ: msgPutData, id: id, epoch: ep, key: key, tag: tag, elem: elem, vlen: 99},
		{typ: msgGetData, id: id, epoch: ep, key: key, reader: "r#7"},
		{typ: msgReaderDone, id: id, epoch: ep},
		{typ: msgKeys, id: id, epoch: ep},
		{typ: msgGetElem, id: id, epoch: ep, key: key},
		{typ: msgRepairPut, id: id, epoch: ep, key: key, tag: tag, elem: elem, vlen: 21},
	} {
		var got request
		if err := decodeRequest(framed(appendRequest(nil, &want)), &got); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s round trip = %+v, %v", msgNames[want.typ], got, err)
		}
	}
	for _, want := range []response{
		{typ: msgTagResp, id: id, epoch: ep, tag: tag},
		{typ: msgData, id: id, epoch: ep, tag: tag, elem: elem, vlen: 99, initial: true},
		{typ: msgData, id: id, epoch: ep, initial: true}, // the zero-tag empty-server delivery
		{typ: msgElemResp, id: id, epoch: ep, tag: tag, elem: elem, vlen: 21},
		{typ: msgElemResp, id: id, epoch: ep}, // the zero-tag empty-register response
		{typ: msgKeysResp, id: id, epoch: ep, keys: []string{"a", "b/c", strings.Repeat("k", maxKeyLen)}},
		{typ: msgKeysResp, id: id, epoch: ep}, // an empty enumeration
		{typ: msgRepairResp, id: id, epoch: ep, accepted: true},
		{typ: msgRepairResp, id: id, epoch: ep, accepted: false},
	} {
		var got response
		if err := decodeResponse(framed(appendResponse(nil, &want)), want.typ, &got); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s round trip = %+v, %v", msgNames[want.typ], got, err)
		}
	}
}

// TestWireKeyBounds pins the key validation rules: empty keys and
// oversized keys are refused by encoder-side validation and by the
// cursor on decode.
func TestWireKeyBounds(t *testing.T) {
	if err := validateKey(""); !errors.Is(err, ErrFrame) {
		t.Fatalf("validateKey(\"\") = %v", err)
	}
	long := strings.Repeat("x", maxKeyLen+1)
	if err := validateKey(long); !errors.Is(err, ErrFrame) {
		t.Fatalf("validateKey(256 bytes) = %v", err)
	}
	if err := validateKey(strings.Repeat("x", maxKeyLen)); err != nil {
		t.Fatalf("validateKey(255 bytes) = %v", err)
	}
	// A forged frame with a zero-length key fails decode.
	var req request
	b := appendHeader(nil, msgGetTag, 1, 0)
	b = append(b, 0, 0) // uint16 key length 0
	if err := decodeRequest(b, &req); !errors.Is(err, ErrFrame) {
		t.Fatalf("zero-length key decode = %v", err)
	}
	// A forged length larger than maxKeyLen fails even when the bytes
	// are present.
	b = appendHeader(nil, msgGetTag, 1, 0)
	b = append(b, 0x01, 0x00) // claims 256
	b = append(b, bytes.Repeat([]byte{'x'}, 256)...)
	if err := decodeRequest(b, &req); !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized key decode = %v", err)
	}
}

// TestWireTypedErrors pins the decode-failure taxonomy: truncation and
// trailing bytes yield *FrameError (still matching ErrFrame), and an
// explicit msgError frame surfaces as *RemoteError whatever response
// was expected.
func TestWireTypedErrors(t *testing.T) {
	const id = uint64(5)
	var resp response
	// Truncated payload: typed, named, and ErrFrame-compatible.
	full := appendResponse(nil, &response{typ: msgElemResp, id: id, tag: Tag{TS: 3, Writer: "w"}, elem: []byte{1, 2}, vlen: 2})
	err := decodeResponse(full[:len(full)-1], msgElemResp, &resp)
	var fe *FrameError
	if !errors.As(err, &fe) || !errors.Is(err, ErrFrame) {
		t.Fatalf("truncated elem-resp error = %v (%T)", err, err)
	}
	if fe.Want != "elem-resp" || fe.Msg != "truncated payload" {
		t.Fatalf("FrameError = %+v", fe)
	}

	// Trailing bytes.
	err = decodeResponse(append(append([]byte(nil), full...), 0xAB), msgElemResp, &resp)
	if !errors.As(err, &fe) || fe.Msg != "1 trailing bytes" {
		t.Fatalf("trailing-bytes error = %v", err)
	}

	// Wrong type byte names both sides of the disagreement.
	err = decodeResponse(appendResponse(nil, &response{typ: msgRepairResp, id: id, accepted: true}), msgAck, &resp)
	if !errors.As(err, &fe) || fe.Want != "ack" || fe.Got != msgRepairResp {
		t.Fatalf("wrong-type error = %v (%+v)", err, fe)
	}

	// An explicit error frame beats a type mismatch whatever was
	// expected, and the offending request id comes back with it.
	frame := appendResponse(nil, &response{typ: msgError, id: id, msg: "unknown message type 0xff"})
	var re *RemoteError
	for _, want := range []byte{msgAck, msgTagResp, msgElemResp, msgError} {
		resp = response{}
		err := decodeResponse(frame, want, &resp)
		if resp.id != id || !errors.As(err, &re) || re.Msg != "unknown message type 0xff" {
			t.Fatalf("error frame decoded as %s = %d, %v", msgNames[want], resp.id, err)
		}
	}

	// Error-frame text is capped in both directions.
	huge := string(bytes.Repeat([]byte{'x'}, 4*maxErrorMsg))
	if err := decodeResponse(appendResponse(nil, &response{typ: msgError, id: id, msg: huge}), msgAck, &resp); !errors.As(err, &re) || len(re.Msg) != maxErrorMsg {
		t.Fatalf("oversized error frame = %v", err)
	}
	forged := appendBytes(appendHeader(nil, msgError, id, epochNone), []byte(huge))
	if err := decodeResponse(forged, msgAck, &resp); !errors.As(err, &re) || len(re.Msg) != maxErrorMsg {
		t.Fatalf("oversized forged error frame = %v", err)
	}

	// Empty payloads and short headers are typed failures, not panics.
	if err := decodeResponse(nil, msgAck, &resp); !errors.As(err, &fe) || fe.Msg != "empty payload" {
		t.Fatalf("empty payload error = %v", err)
	}
	if _, _, _, _, err := header([]byte{msgAck, 0, 0}, "ack"); !errors.As(err, &fe) || fe.Msg != "truncated header" {
		t.Fatalf("short header error = %v", err)
	}
}

func TestWireMalformed(t *testing.T) {
	// Truncated payloads must error, not panic or misparse.
	var req request
	var resp response
	full := appendRequest(nil, &request{typ: msgPutData, id: 9, key: "k", tag: Tag{TS: 5, Writer: "w"}, elem: []byte{9, 9, 9}, vlen: 3})
	for cut := 1; cut < len(full); cut++ {
		if err := decodeRequest(full[:cut], &req); err == nil {
			t.Fatalf("decodeRequest accepted a %d/%d byte prefix of a put-data", cut, len(full))
		}
	}
	// Trailing garbage is rejected too.
	if err := decodeResponse(append(appendResponse(nil, &response{typ: msgTagResp, id: 9, tag: Tag{TS: 1}}), 0xFF), msgTagResp, &resp); err == nil {
		t.Fatal("decodeResponse accepted trailing bytes on a tag-resp")
	}
	// Wrong message type.
	if err := decodeResponse(appendResponse(nil, &response{typ: msgAck, id: 9}), msgTagResp, &resp); err == nil {
		t.Fatal("decodeResponse accepted an ack for a tag-resp")
	}
	// A response type is not a request, nor a request a response.
	if err := decodeRequest(appendResponse(nil, &response{typ: msgAck, id: 9}), &req); !errors.Is(err, ErrFrame) {
		t.Fatalf("decodeRequest on an ack = %v", err)
	}
	if err := decodeResponse(appendRequest(nil, &request{typ: msgKeys, id: 9}), msgKeys, &resp); !errors.Is(err, ErrFrame) {
		t.Fatalf("decodeResponse on a keys request = %v", err)
	}
	// A keys-resp claiming an absurd count fails instead of allocating.
	b := appendHeader(nil, msgKeysResp, 9, 0)
	b = append(b, 0xFF, 0xFF, 0xFF, 0xFF)
	if err := decodeResponse(b, msgKeysResp, &resp); err == nil {
		t.Fatal("decodeResponse accepted a 4-billion-key enumeration")
	}
	// A value length no int32 holds is refused.
	b = appendTag(appendKey(appendHeader(nil, msgPutData, 9, 0), "k"), Tag{TS: 1})
	b = appendBytes(append(b, 0xFF, 0xFF, 0xFF, 0xFF), nil)
	if err := decodeRequest(b, &req); !errors.Is(err, ErrFrame) {
		t.Fatalf("put-data with vlen 2^32-1 = %v", err)
	}
	// Oversized and zero-length frames are refused at the framing layer.
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := readFrame(&buf, nil); !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized frame error = %v", err)
	}
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 0})
	if _, err := readFrame(&buf, nil); !errors.Is(err, ErrFrame) {
		t.Fatalf("zero frame error = %v", err)
	}
	// A truncated stream surfaces as an IO error.
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 9, 1, 2})
	if _, err := readFrame(&buf, nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame error = %v", err)
	}
}

// FuzzDecodeRequest: no input panics the request decoder, every bound
// violation is an ErrFrame, and whatever decodes re-encodes to the bytes
// it came from.
func FuzzDecodeRequest(f *testing.F) {
	for _, g := range goldenRequests {
		f.Add(mustHex(f, g.hex))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var req request
		if err := decodeRequest(payload, &req); err != nil {
			if !errors.Is(err, ErrFrame) {
				t.Fatalf("decode error %v does not match ErrFrame", err)
			}
			return
		}
		if req.key != "" && validateKey(req.key) != nil {
			t.Fatalf("decoded an invalid %d-byte key", len(req.key))
		}
		if req.vlen < 0 || req.vlen > math.MaxInt32 {
			t.Fatalf("decoded vlen %d", req.vlen)
		}
		if got := appendRequest(nil, &req); !bytes.Equal(got, payload) {
			t.Fatalf("re-encoded\n %x, decoded from\n %x", got, payload)
		}
	})
}

// FuzzDecodeResponse is FuzzDecodeRequest for the other direction; the
// expected type is the frame's own, so every body layout is reached. An
// error or epoch-nack frame must come back as its typed error.
func FuzzDecodeResponse(f *testing.F) {
	for _, g := range goldenResponses {
		f.Add(mustHex(f, g.hex))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var resp response
		var want byte
		if len(payload) > 0 {
			want = payload[0]
		}
		if err := decodeResponse(payload, want, &resp); err != nil {
			var re *RemoteError
			var se *StaleEpochError
			switch {
			case errors.Is(err, ErrFrame):
			case errors.As(err, &re):
				if want != msgError || len(re.Msg) > maxErrorMsg {
					t.Fatalf("RemoteError (%d byte message) from a %s frame", len(re.Msg), msgNames[want])
				}
			case errors.As(err, &se):
				if want != msgEpochNack {
					t.Fatalf("StaleEpochError from a %s frame", msgNames[want])
				}
			default:
				t.Fatalf("decode error %v is none of ErrFrame, RemoteError, StaleEpochError", err)
			}
			return
		}
		if len(resp.keys) > maxKeys || resp.vlen < 0 || resp.vlen > math.MaxInt32 {
			t.Fatalf("decoded %d keys, vlen %d", len(resp.keys), resp.vlen)
		}
		for _, k := range resp.keys {
			if validateKey(k) != nil {
				t.Fatalf("decoded an invalid %d-byte key", len(k))
			}
		}
		if got := appendResponse(nil, &resp); !bytes.Equal(got, payload) {
			t.Fatalf("re-encoded\n %x, decoded from\n %x", got, payload)
		}
	})
}
