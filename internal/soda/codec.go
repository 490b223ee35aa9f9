package soda

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"repro/internal/gf256"
	"repro/internal/rs"
)

var (
	// ErrEmptyValue is returned by writes of a zero-length value; the
	// register's initial state already is the empty value.
	ErrEmptyValue = errors.New("soda: empty value")
	// ErrConfig is returned for unusable writer/reader/cluster
	// configurations.
	ErrConfig = errors.New("soda: invalid configuration")
)

// Codec turns register values into the n coded elements SODA servers
// store, and back. Server i always receives codeword shard i, so the
// shard index is the server's identity in the code. It is safe for
// concurrent use.
type Codec struct {
	enc *rs.Encoder
}

// NewCodec builds the [n, k] codec a cluster of n servers shares:
// SODA and SODA_err readers (Config.E) decode the same elements.
func NewCodec(n, k int) (*Codec, error) {
	enc, err := rs.New(n, k)
	if err != nil {
		return nil, err
	}
	return &Codec{enc: enc}, nil
}

// N returns the number of servers (total shards).
func (c *Codec) N() int { return c.enc.N() }

// K returns the number of coded elements a read must gather.
func (c *Codec) K() int { return c.enc.K() }

// MaxReadErrors returns the largest Config.E a reader accepts: the
// number of corrupt elements the codec can locate with no erasures,
// floor((n-k)/2).
func (c *Codec) MaxReadErrors() int { return c.enc.MaxErrors(0) }

// shardSize is the coded-element size for a value of vlen bytes: the
// value is cut into k equal data shards, zero-padding the last.
func (c *Codec) shardSize(vlen int) int {
	k := c.enc.K()
	return (vlen + k - 1) / k
}

// EncodeValue encodes a value into its n coded elements: shards
// 0..k-1 are the value itself (systematic code, zero-padded to equal
// size) and shards k..n-1 are parity. Element i belongs to server i.
func (c *Codec) EncodeValue(value []byte) ([][]byte, error) {
	if len(value) == 0 {
		return nil, ErrEmptyValue
	}
	n := c.enc.N()
	s := c.shardSize(len(value))
	buf := make([]byte, n*s)
	copy(buf, value) // the k data shards are the leading k*s bytes
	shards := make([][]byte, n)
	for i := range shards {
		shards[i] = buf[i*s : (i+1)*s]
	}
	if err := c.enc.EncodeInto(shards); err != nil {
		return nil, err
	}
	return shards, nil
}

// encodeValueInto is EncodeValue against a reusable scratch: the
// caller's buffer is grown once to n*s and resliced into shards, so a
// steady-state writer allocates nothing per write. The data region is
// rebuilt from the value (padding re-zeroed — the buffer is recycled
// and EncodeInto reads the pad bytes); the parity region needs no
// clearing because EncodeInto fully overwrites it.
func (c *Codec) encodeValueInto(value []byte, sc *encodeScratch) error {
	if len(value) == 0 {
		return ErrEmptyValue
	}
	n, k := c.enc.N(), c.enc.K()
	s := c.shardSize(len(value))
	if handoff(s) {
		return c.encodeOwned(value, sc, s)
	}
	if total := n * s; cap(sc.buf) < total {
		sc.buf = make([]byte, total)
	} else {
		sc.buf = sc.buf[:total]
	}
	copy(sc.buf, value)
	clear(sc.buf[len(value) : k*s])
	if cap(sc.shards) < n {
		sc.shards = make([][]byte, n)
	} else {
		sc.shards = sc.shards[:n]
	}
	for i := range sc.shards {
		sc.shards[i] = sc.buf[i*s : (i+1)*s]
	}
	return c.enc.EncodeInto(sc.shards)
}

// encodeOwned is encodeValueInto for elements that change hands with
// their put-data (see handoff): sc.shards become n independent buffers
// from the element free list, each of which its conn will own, and
// sc.buf is not used at all.
func (c *Codec) encodeOwned(value []byte, sc *encodeScratch, s int) error {
	n := c.enc.N()
	sc.shards = slices.Grow(sc.shards[:0], n)[:n]
	sc.cold = slices.Grow(sc.cold[:0], n)[:n]
	for i := range sc.shards {
		sc.shards[i], sc.cold[i] = getElem(s)
	}
	err := c.encodeElems(value, sc, s)
	if err != nil {
		sc.unsent(nil)
	}
	return err
}

// encodeElems fills sc.shards — n buffers of s bytes, dirty, flagged by
// sc.cold — with value's coded elements. Every stored byte is written
// once, and into a cold buffer (see elemBox) with non-temporal stores:
// parity is computed from the value's own slices — warm, the caller has
// just produced them — and only then are those slices copied out as the
// data elements. The zero padding (pad < k bytes at the end of the last
// data element, since handoff(s)) is never materialised as an input:
// the parity of the last pad bytes is a second, tiny encode against
// zeroPad.
func (c *Codec) encodeElems(value []byte, sc *encodeScratch, s int) error {
	n, k := c.enc.N(), c.enc.K()
	sc.inputs = slices.Grow(sc.inputs[:0], k)[:k]
	sc.outs = slices.Grow(sc.outs[:0], n-k)[:n-k]
	defer clear(sc.inputs) // a pooled scratch must not pin the value
	pad := k*s - len(value)
	body := s - pad // what the last data element holds of the value
	for i := range sc.inputs {
		sc.inputs[i] = value[i*s : i*s+body]
	}
	for i := range sc.outs {
		sc.outs[i] = sc.shards[k+i][:body]
	}
	if err := c.enc.EncodeParity(sc.inputs, sc.outs, sc.cold[k:]); err != nil {
		return err
	}
	if pad > 0 {
		for i := 0; i < k-1; i++ {
			sc.inputs[i] = value[i*s+body : (i+1)*s]
		}
		sc.inputs[k-1] = zeroPad[:pad]
		for i := range sc.outs {
			sc.outs[i] = sc.shards[k+i][body:]
		}
		if err := c.enc.EncodeParity(sc.inputs, sc.outs, nil); err != nil {
			return err
		}
	}
	for i, rest := 0, value; i < k; i++ {
		var m int
		if sc.cold[i] {
			m = gf256.CopyStream(sc.shards[i], rest)
		} else {
			m = copy(sc.shards[i], rest)
		}
		rest = rest[m:]
	}
	clear(sc.shards[k-1][body:])
	return nil
}

// zeroPad stands in for the padding of the last data element; a code
// has at most 256 shards, so the padding is under 256 bytes.
var zeroPad [256]byte

// DecodeValue reassembles a value of vlen bytes from the k data
// shards (shards[0..k-1] must be present at the element size for
// vlen; parity entries are ignored), joined into a fresh buffer that
// is never zero-filled first.
func (c *Codec) DecodeValue(shards [][]byte, vlen int) ([]byte, error) {
	if vlen <= 0 {
		return nil, fmt.Errorf("%w: value length %d", ErrConfig, vlen)
	}
	k := c.enc.K()
	s := c.shardSize(vlen)
	if len(shards) < k {
		return nil, fmt.Errorf("%w: %d shards, need the %d data shards", ErrConfig, len(shards), k)
	}
	for i := 0; i < k; i++ {
		if len(shards[i]) != s {
			return nil, fmt.Errorf("%w: data shard %d has %d bytes, want %d", ErrConfig, i, len(shards[i]), s)
		}
	}
	return bytes.Join(shards[:k], nil)[:vlen], nil
}

// decodeDegraded is DecodeValue for k or more elements (server-indexed,
// nil = absent) that lack a data shard: the missing ones are
// reconstructed straight into the result. elems is only read — the rs
// decoder never writes a present shard.
func (c *Codec) decodeDegraded(elems [][]byte, vlen int) ([]byte, error) {
	k := c.enc.K()
	s := c.shardSize(vlen)
	out := make([]byte, k*s)
	shards := slices.Clone(elems)
	for i := 0; i < k; i++ {
		if elems[i] == nil {
			shards[i] = out[i*s : i*s : (i+1)*s]
		} else {
			copy(out[i*s:(i+1)*s], elems[i])
		}
	}
	if err := c.enc.ReconstructInto(shards); err != nil {
		return nil, err
	}
	return out[:vlen], nil
}
