package wire

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// ChecksumSize is what AppendChecked puts in front of an encoded
// message: a big-endian CRC32 (IEEE) of the bytes behind it.
const ChecksumSize = 4

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

// DecodeChecked verifies the checksum and decodes the message behind
// it. It returns ErrChecksum for truncated or bit-damaged input and the
// codec's error for intact bytes the codec rejects; it never panics and
// never returns a message from damaged input. The codec copies out
// everything it keeps, so buf can be reused the moment this returns.
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
