package wire

import (
	"encoding/binary"
	"fmt"
	"time"

	"pds/internal/attr"
	"pds/internal/bloom"
)

// Frame layout (all integers varint/uvarint unless noted):
//
//	magic byte 0x9D | version 0x01 | type byte
//	transmitID | from | flags (bit0 = NoAck)
//	body (type-specific)
//
// The codec is deliberately simple and deterministic: every field is
// written in a fixed order, so EncodedSize can be computed analytically
// and must equal len(Encode()). TestEncodedSizeMatches enforces this.
const (
	frameMagic   = 0x9d
	frameVersion = 0x01
)

//pds:hotpath
func appendNodeIDs(dst []byte, ids []NodeID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	return dst
}

func decodeNodeIDs(src []byte) ([]NodeID, []byte, error) {
	n, used := binary.Uvarint(src)
	if used <= 0 {
		return nil, nil, errTruncated
	}
	src = src[used:]
	if n > uint64(len(src)) { // each id takes >= 1 byte
		return nil, nil, errTruncated
	}
	var ids []NodeID
	if n > 0 {
		ids = make([]NodeID, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		v, used := binary.Uvarint(src)
		if used <= 0 {
			return nil, nil, errTruncated
		}
		src = src[used:]
		ids = append(ids, NodeID(v))
	}
	return ids, src, nil
}

//pds:hotpath
func appendInts(dst []byte, xs []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(xs)))
	for _, x := range xs {
		dst = binary.AppendVarint(dst, int64(x))
	}
	return dst
}

func decodeInts(src []byte) ([]int, []byte, error) {
	n, used := binary.Uvarint(src)
	if used <= 0 {
		return nil, nil, errTruncated
	}
	src = src[used:]
	if n > uint64(len(src)) {
		return nil, nil, errTruncated
	}
	var xs []int
	if n > 0 {
		xs = make([]int, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		v, used := binary.Varint(src)
		if used <= 0 {
			return nil, nil, errTruncated
		}
		src = src[used:]
		xs = append(xs, int(v))
	}
	return xs, src, nil
}

// Encode serializes the message to a fresh buffer.
func Encode(m *Message) ([]byte, error) {
	return AppendEncode(make([]byte, 0, 64), m)
}

// AppendEncode serializes the message, appending to dst and returning
// the extended buffer. Transports that reuse a scratch buffer across
// sends avoid the per-message allocation of Encode; EncodedSize gives
// the exact number of bytes appended for pre-sizing.
//
//pds:hotpath
func AppendEncode(dst []byte, m *Message) ([]byte, error) {
	return appendMessage(dst, m, nil)
}

// appendMessage is the one encoder; with s set, payloads stay out of line.
//
//pds:hotpath
func appendMessage(dst []byte, m *Message, s *split) ([]byte, error) {
	dst = append(dst, frameMagic, frameVersion, byte(m.Type))
	dst = binary.AppendUvarint(dst, m.TransmitID)
	dst = binary.AppendUvarint(dst, uint64(m.From))
	var flags byte
	if m.NoAck {
		flags |= 1
	}
	dst = append(dst, flags)
	switch m.Type {
	case TypeQuery:
		if m.Query == nil {
			return nil, fmt.Errorf("%w: query message without body", ErrBadMessage)
		}
		dst = appendQuery(dst, m.Query)
	case TypeResponse:
		if m.Response == nil {
			return nil, fmt.Errorf("%w: response message without body", ErrBadMessage)
		}
		dst = appendResponse(dst, m.Response, s)
	case TypeAck:
		if m.Ack == nil {
			return nil, fmt.Errorf("%w: ack message without body", ErrBadMessage)
		}
		dst = binary.AppendUvarint(dst, m.Ack.MsgID)
		dst = binary.AppendUvarint(dst, uint64(m.Ack.From))
	case TypeFragment:
		f := m.Fragment
		if f == nil {
			return nil, fmt.Errorf("%w: fragment message without body", ErrBadMessage)
		}
		data, err := f.data()
		if err != nil {
			return nil, err
		}
		dst = binary.AppendUvarint(dst, f.OrigID)
		dst = binary.AppendUvarint(dst, uint64(f.Index))
		dst = binary.AppendUvarint(dst, uint64(f.Count))
		dst = appendNodeIDs(dst, f.Receivers)
		dst = binary.AppendUvarint(dst, uint64(len(data)))
		dst = append(dst, data...)
	default:
		return nil, fmt.Errorf("%w: unknown type %d", ErrBadMessage, m.Type)
	}
	return dst, nil
}

// data returns the bytes the fragment carries: Data when it has them,
// otherwise its own range of the encoded Whole. The fragments of a
// message are Size bytes each but for the last, which ends the message.
func (f *Fragment) data() ([]byte, error) {
	if f.Data != nil {
		return f.Data, nil
	}
	if f.Whole == nil {
		return nil, fmt.Errorf("%w: fragment with neither data nor whole", ErrBadMessage)
	}
	whole, err := f.Enc.of(f.Whole)
	if err != nil {
		return nil, err
	}
	// Every fragment but the last is Size bytes, so Size and the message
	// length fix how many there are; the last one ends the message.
	n, last := len(whole), f.Index == f.Count-1
	if f.Index < 0 || f.Index >= f.Count || f.Size <= 0 || f.Size > n ||
		(!last && f.Count != (n-1)/f.Size+1) {
		return nil, fmt.Errorf("%w: fragment %d of %d, %d bytes, does not fit its %d-byte message",
			ErrBadMessage, f.Index, f.Count, f.Size, n)
	}
	lo := f.Index * f.Size
	if last {
		lo = n - f.Size
	}
	return whole[lo : lo+f.Size], nil
}

//pds:hotpath
func appendQuery(dst []byte, q *Query) []byte {
	dst = binary.AppendUvarint(dst, q.ID)
	dst = append(dst, byte(q.Kind))
	dst = binary.AppendVarint(dst, int64(q.TTL))
	dst = binary.AppendUvarint(dst, uint64(q.Sender))
	dst = appendNodeIDs(dst, q.Receivers)
	dst = binary.AppendUvarint(dst, uint64(q.Origin))
	dst = binary.AppendUvarint(dst, uint64(q.Round))
	dst = append(dst, q.HopsLeft)
	dst = q.Sel.AppendBinary(dst)
	dst = q.Item.AppendBinary(dst)
	dst = appendInts(dst, q.ChunkIDs)
	if q.Bloom != nil {
		dst = append(dst, 1)
		dst = q.Bloom.AppendBinary(dst)
	} else {
		dst = append(dst, 0)
	}
	return dst
}

//pds:hotpath
func appendResponse(dst []byte, r *Response, s *split) []byte {
	dst = binary.AppendUvarint(dst, r.ID)
	dst = append(dst, byte(r.Kind))
	dst = binary.AppendUvarint(dst, uint64(r.Sender))
	dst = appendNodeIDs(dst, r.Receivers)
	dst = binary.AppendUvarint(dst, uint64(len(r.Serves)))
	for _, sv := range r.Serves {
		dst = binary.AppendUvarint(dst, uint64(sv.Node))
		dst = binary.AppendUvarint(dst, sv.QueryID)
	}
	dst = r.Item.AppendBinary(dst)
	dst = binary.AppendUvarint(dst, uint64(len(r.Entries)))
	for _, e := range r.Entries {
		dst = e.AppendBinary(dst)
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.CDI)))
	for _, p := range r.CDI {
		dst = binary.AppendVarint(dst, int64(p.ChunkID))
		dst = binary.AppendVarint(dst, int64(p.HopCount))
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.Blobs)))
	for _, b := range r.Blobs {
		dst = b.Desc.AppendBinary(dst)
		dst = binary.AppendUvarint(dst, uint64(len(b.Payload)))
		if s == nil || len(b.Payload) == 0 {
			dst = append(dst, b.Payload...)
		} else {
			s.cut(dst, b.Payload, len(r.Blobs))
		}
	}
	return dst
}

// Decode parses a message encoded by Encode, in one allocation like
// NewQuery's. Blob payloads alias src, and everything else is copied
// out: src is reusable iff PayloadBytes is 0.
func Decode(src []byte) (*Message, error) {
	if len(src) < 4 {
		return nil, errTruncated
	}
	if src[0] != frameMagic || src[1] != frameVersion {
		return nil, fmt.Errorf("%w: bad magic/version %x %x", ErrBadMessage, src[0], src[1])
	}
	env := Message{Type: MessageType(src[2])}
	src = src[3:]
	var used int
	env.TransmitID, used = binary.Uvarint(src)
	if used <= 0 {
		return nil, errTruncated
	}
	src = src[used:]
	from, used := binary.Uvarint(src)
	if used <= 0 {
		return nil, errTruncated
	}
	src = src[used:]
	env.From = NodeID(from)
	if len(src) < 1 {
		return nil, errTruncated
	}
	env.NoAck = src[0]&1 != 0
	src = src[1:]

	var m *Message
	var err error
	switch env.Type {
	case TypeQuery:
		m = wrap(env, Query{})
		src, err = decodeQuery(m.Query, src)
	case TypeResponse:
		m = wrap(env, Response{})
		src, err = decodeResponse(m.Response, src)
	case TypeAck:
		m = wrap(env, Ack{})
		m.Ack.MsgID, used = binary.Uvarint(src)
		if used <= 0 {
			return nil, errTruncated
		}
		src = src[used:]
		f, used := binary.Uvarint(src)
		if used <= 0 {
			return nil, errTruncated
		}
		src = src[used:]
		m.Ack.From = NodeID(f)
	case TypeFragment:
		m = wrap(env, Fragment{})
		src, err = decodeFragment(m.Fragment, src)
	default:
		return nil, fmt.Errorf("%w: unknown type %d", ErrBadMessage, env.Type)
	}
	if err != nil {
		return nil, err
	}
	if len(src) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, len(src))
	}
	return m, nil
}

func decodeQuery(q *Query, src []byte) ([]byte, error) {
	var used int
	q.ID, used = binary.Uvarint(src)
	if used <= 0 {
		return nil, errTruncated
	}
	src = src[used:]
	if len(src) < 1 {
		return nil, errTruncated
	}
	q.Kind = QueryKind(src[0])
	src = src[1:]
	ttl, used := binary.Varint(src)
	if used <= 0 {
		return nil, errTruncated
	}
	src = src[used:]
	q.TTL = time.Duration(ttl)
	sender, used := binary.Uvarint(src)
	if used <= 0 {
		return nil, errTruncated
	}
	src = src[used:]
	q.Sender = NodeID(sender)
	var err error
	if q.Receivers, src, err = decodeNodeIDs(src); err != nil {
		return nil, err
	}
	origin, used := binary.Uvarint(src)
	if used <= 0 {
		return nil, errTruncated
	}
	src = src[used:]
	q.Origin = NodeID(origin)
	round, used := binary.Uvarint(src)
	if used <= 0 {
		return nil, errTruncated
	}
	src = src[used:]
	q.Round = uint32(round)
	if len(src) < 1 {
		return nil, errTruncated
	}
	q.HopsLeft = src[0]
	src = src[1:]
	if q.Sel, src, err = attr.DecodeQuery(src); err != nil {
		return nil, err
	}
	if q.Item, src, err = attr.DecodeDescriptor(src); err != nil {
		return nil, err
	}
	if q.ChunkIDs, src, err = decodeInts(src); err != nil {
		return nil, err
	}
	if len(src) < 1 {
		return nil, errTruncated
	}
	hasBloom := src[0] == 1
	src = src[1:]
	if hasBloom {
		if q.Bloom, src, err = bloom.Decode(src); err != nil {
			return nil, err
		}
	}
	return src, nil
}

func decodeResponse(r *Response, src []byte) ([]byte, error) {
	var used int
	r.ID, used = binary.Uvarint(src)
	if used <= 0 {
		return nil, errTruncated
	}
	src = src[used:]
	if len(src) < 1 {
		return nil, errTruncated
	}
	r.Kind = QueryKind(src[0])
	src = src[1:]
	sender, used := binary.Uvarint(src)
	if used <= 0 {
		return nil, errTruncated
	}
	src = src[used:]
	r.Sender = NodeID(sender)
	var err error
	if r.Receivers, src, err = decodeNodeIDs(src); err != nil {
		return nil, err
	}
	nServes, used := binary.Uvarint(src)
	if used <= 0 || nServes > uint64(len(src)) {
		return nil, errTruncated
	}
	src = src[used:]
	if nServes > 0 {
		r.Serves = make([]Serve, 0, nServes)
	}
	for i := uint64(0); i < nServes; i++ {
		node, used := binary.Uvarint(src)
		if used <= 0 {
			return nil, errTruncated
		}
		src = src[used:]
		qid, used := binary.Uvarint(src)
		if used <= 0 {
			return nil, errTruncated
		}
		src = src[used:]
		r.Serves = append(r.Serves, Serve{Node: NodeID(node), QueryID: qid})
	}
	if r.Item, src, err = attr.DecodeDescriptor(src); err != nil {
		return nil, err
	}
	nEntries, used := binary.Uvarint(src)
	if used <= 0 || nEntries > uint64(len(src)) {
		return nil, errTruncated
	}
	src = src[used:]
	if nEntries > 0 {
		r.Entries = make([]attr.Descriptor, 0, nEntries)
	}
	for i := uint64(0); i < nEntries; i++ {
		var d attr.Descriptor
		if d, src, err = attr.DecodeDescriptor(src); err != nil {
			return nil, err
		}
		r.Entries = append(r.Entries, d)
	}
	nCDI, used := binary.Uvarint(src)
	if used <= 0 || nCDI > uint64(len(src)) {
		return nil, errTruncated
	}
	src = src[used:]
	if nCDI > 0 {
		r.CDI = make([]CDIPair, 0, nCDI)
	}
	for i := uint64(0); i < nCDI; i++ {
		cid, used := binary.Varint(src)
		if used <= 0 {
			return nil, errTruncated
		}
		src = src[used:]
		hc, used := binary.Varint(src)
		if used <= 0 {
			return nil, errTruncated
		}
		src = src[used:]
		r.CDI = append(r.CDI, CDIPair{ChunkID: int(cid), HopCount: int(hc)})
	}
	nBlobs, used := binary.Uvarint(src)
	if used <= 0 || nBlobs > uint64(len(src))+1 {
		return nil, errTruncated
	}
	src = src[used:]
	if nBlobs > 0 {
		r.Blobs = make([]Blob, 0, nBlobs)
	}
	for i := uint64(0); i < nBlobs; i++ {
		var b Blob
		if b.Desc, src, err = attr.DecodeDescriptor(src); err != nil {
			return nil, err
		}
		plen, used := binary.Uvarint(src)
		if used <= 0 || plen > uint64(len(src)-used) {
			return nil, errTruncated
		}
		src = src[used:]
		if plen > 0 {
			b.Payload = src[:plen:plen]
		}
		src = src[plen:]
		r.Blobs = append(r.Blobs, b)
	}
	return src, nil
}

func decodeFragment(f *Fragment, src []byte) ([]byte, error) {
	var used int
	f.OrigID, used = binary.Uvarint(src)
	if used <= 0 {
		return nil, errTruncated
	}
	src = src[used:]
	idx, used := binary.Uvarint(src)
	if used <= 0 {
		return nil, errTruncated
	}
	src = src[used:]
	f.Index = int(idx)
	cnt, used := binary.Uvarint(src)
	if used <= 0 {
		return nil, errTruncated
	}
	src = src[used:]
	f.Count = int(cnt)
	var err error
	if f.Receivers, src, err = decodeNodeIDs(src); err != nil {
		return nil, err
	}
	dlen, used := binary.Uvarint(src)
	if used <= 0 || dlen > uint64(len(src)-used) {
		return nil, errTruncated
	}
	src = src[used:]
	f.Data = append([]byte{}, src[:dlen]...) // never nil: a decoded fragment has Data, even empty
	f.Size = int(dlen)
	src = src[dlen:]
	return src, nil
}

// uvarintLen returns the encoded length of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// varintLen returns the encoded length of v as a zig-zag varint.
func varintLen(v int64) int {
	uv := uint64(v) << 1
	if v < 0 {
		uv = ^uv
	}
	return uvarintLen(uv)
}

// EncodedSize returns len(Encode(m)) without serializing payload bytes.
// The simulator charges airtime and the overhead metric from this.
//
//pds:hotpath
func EncodedSize(m *Message) int {
	n := 3 // magic, version, type
	n += uvarintLen(m.TransmitID)
	n += uvarintLen(uint64(m.From))
	n++ // flags
	switch m.Type {
	case TypeQuery:
		q := m.Query
		n += uvarintLen(q.ID)
		n++ // kind
		n += varintLen(int64(q.TTL))
		n += uvarintLen(uint64(q.Sender))
		n += uvarintLen(uint64(len(q.Receivers)))
		for _, id := range q.Receivers {
			n += uvarintLen(uint64(id))
		}
		n += uvarintLen(uint64(q.Origin))
		n += uvarintLen(uint64(q.Round))
		n++ // hops left
		n += q.Sel.EncodedSize()
		n += q.Item.EncodedSize()
		n += uvarintLen(uint64(len(q.ChunkIDs)))
		for _, c := range q.ChunkIDs {
			n += varintLen(int64(c))
		}
		n++ // bloom presence flag
		if q.Bloom != nil {
			n += q.Bloom.EncodedSize()
		}
	case TypeResponse:
		r := m.Response
		n += uvarintLen(r.ID)
		n++ // kind
		n += uvarintLen(uint64(r.Sender))
		n += uvarintLen(uint64(len(r.Receivers)))
		for _, id := range r.Receivers {
			n += uvarintLen(uint64(id))
		}
		n += uvarintLen(uint64(len(r.Serves)))
		for _, sv := range r.Serves {
			n += uvarintLen(uint64(sv.Node))
			n += uvarintLen(sv.QueryID)
		}
		n += r.Item.EncodedSize()
		n += uvarintLen(uint64(len(r.Entries)))
		for _, e := range r.Entries {
			n += e.EncodedSize()
		}
		n += uvarintLen(uint64(len(r.CDI)))
		for _, p := range r.CDI {
			n += varintLen(int64(p.ChunkID))
			n += varintLen(int64(p.HopCount))
		}
		n += uvarintLen(uint64(len(r.Blobs)))
		for _, b := range r.Blobs {
			n += b.Desc.EncodedSize()
			n += uvarintLen(uint64(len(b.Payload)))
			n += len(b.Payload)
		}
	case TypeAck:
		n += uvarintLen(m.Ack.MsgID)
		n += uvarintLen(uint64(m.Ack.From))
	case TypeFragment:
		f := m.Fragment
		n += uvarintLen(f.OrigID)
		n += uvarintLen(uint64(f.Index))
		n += uvarintLen(uint64(f.Count))
		n += uvarintLen(uint64(len(f.Receivers)))
		for _, id := range f.Receivers {
			n += uvarintLen(uint64(id))
		}
		n += uvarintLen(uint64(f.Size))
		n += f.Size
	}
	return n
}
