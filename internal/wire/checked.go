package wire

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// ChecksumSize is what AppendChecked puts in front of an encoded
// message: a big-endian CRC32 (IEEE) of the bytes behind it.
const ChecksumSize = 4

// FragmentOverhead is the worst-case framing around one fragment's data
// slice: the checksum plus the encoded envelope and fragment section with
// every varint at maximum width and an allowance of 16 receiver entries
// (the link narrows the list to live one-hop neighbors, so a small bound
// is realistic). A carrier that frames at most n bytes carries fragments
// of up to n − FragmentOverhead() bytes whole.
func FragmentOverhead() int {
	const maxFragReceivers = 16
	// Size stays 0: EncodedSize counts f.Size as payload bytes, and
	// only the envelope is overhead here.
	f := &Fragment{
		OrigID:    ^uint64(0),
		Index:     1<<31 - 1,
		Count:     1<<31 - 1,
		Receivers: make([]NodeID, maxFragReceivers),
	}
	for i := range f.Receivers {
		f.Receivers[i] = ^NodeID(0)
	}
	m := &Message{
		Type:       TypeFragment,
		TransmitID: ^uint64(0),
		From:       ^NodeID(0),
		Fragment:   f,
	}
	// EncodedSize counts a 1-byte length prefix for the empty Data
	// slice; a full fragment's prefix is up to 5 bytes, hence +4.
	return ChecksumSize + EncodedSize(m) + 4
}

// ErrChecksum marks input that DecodeChecked refused before the codec
// saw it: shorter than a checksum, or damaged.
var ErrChecksum = errors.New("wire: checksum mismatch")

// AppendChecked appends the message's checksum and then its encoding to
// dst: the form the byte carriers put on a socket. UDP's own 16-bit
// checksum is optional on IPv4, and it and TCP's are too weak for
// multi-megabyte transfers; the paper's prototype saw real bit damage
// on busy Wi-Fi.
func AppendChecked(dst []byte, m *Message) ([]byte, error) {
	at := len(dst)
	dst, err := AppendEncode(append(dst, 0, 0, 0, 0), m)
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint32(dst[at:], crc32.ChecksumIEEE(dst[at+ChecksumSize:]))
	return dst, nil
}

// AppendSplit is AppendChecked with each blob payload left where it is:
// the frame is head (dst, checksum, encoding up to the first payload), then
// rest: each payload, m's own slice, and the encoding after it. A message
// with no payload bytes has no rest. It does not grow a dst with room for
// ChecksumSize + EncodedSize(m) − PayloadBytes(m) more bytes.
func AppendSplit(dst []byte, m *Message) (head []byte, rest [][]byte, err error) {
	at := len(dst)
	var s split
	if dst, err = appendMessage(append(dst, 0, 0, 0, 0), m, &s); err != nil {
		return nil, nil, err
	}
	head = dst
	if s.rest != nil {
		head, rest = dst[:s.first], append(s.rest, dst[s.mark:])
	}
	crc := crc32.ChecksumIEEE(head[at+ChecksumSize:])
	for _, seg := range rest {
		crc = crc32.Update(crc, crc32.IEEETable, seg)
	}
	binary.BigEndian.PutUint32(head[at:], crc)
	return head, rest, nil
}

// split records where in dst the first payload goes, where the encoding
// after the last one starts, and the segments between (AppendSplit).
type split struct {
	first, mark int
	rest        [][]byte
}

// cut leaves payload out of line at the end of dst; the first sizes rest
// for n blobs, two segments each.
func (s *split) cut(dst, payload []byte, n int) {
	if s.rest == nil {
		s.first, s.rest = len(dst), make([][]byte, 0, 2*n)
	} else {
		s.rest = append(s.rest, dst[s.mark:])
	}
	s.rest, s.mark = append(s.rest, payload), len(dst)
}

// PayloadBytes returns the blob payload bytes m carries: what AppendSplit
// leaves out of line, and what makes a decoded m hold its input buffer.
func PayloadBytes(m *Message) (n int) {
	if m.Response != nil {
		for _, b := range m.Response.Blobs {
			n += len(b.Payload)
		}
	}
	return n
}

// DecodeChecked verifies the checksum and decodes the message behind
// it. It returns ErrChecksum for truncated or bit-damaged input and the
// codec's error for intact bytes the codec rejects; it never panics and
// never returns a message from damaged input. As with Decode, buf is
// reusable once this returns iff the message's PayloadBytes are 0.
func DecodeChecked(buf []byte) (*Message, error) {
	if len(buf) < ChecksumSize {
		return nil, ErrChecksum
	}
	payload := buf[ChecksumSize:]
	if binary.BigEndian.Uint32(buf) != crc32.ChecksumIEEE(payload) {
		return nil, ErrChecksum
	}
	return Decode(payload)
}
