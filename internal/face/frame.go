package face

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"pds/internal/wire"
)

// Stream framing: every frame is a 4-byte big-endian length (counting
// the type byte and body), a 1-byte type, and the body. A message body
// is the checksummed encoding udptransport puts in a datagram
// (wire.AppendChecked), which keeps damaged frames out of the codec.
const (
	frameHello = 1 // body: 4-byte BE node id
	framePing  = 2 // empty body
	framePong  = 3 // empty body
	frameMsg   = 4 // body: wire.AppendChecked of the message

	lenSize = 4
)

// frame is one queued frame, shared read-only by the faces that queue it:
// head, then rest, which holds a message's payloads (wire.AppendSplit).
type frame struct {
	head []byte
	rest [][]byte
}

// size returns the frame's length on the stream, as its prefix says.
func (fr frame) size() int { return lenSize + int(binary.BigEndian.Uint32(fr.head)) }

// Preframed keepalive frames, shared read-only across all faces.
var (
	pingFrame = frame{head: []byte{0, 0, 0, 1, framePing}}
	pongFrame = frame{head: []byte{0, 0, 0, 1, framePong}}
)

var errFrameLength = errors.New("face: bad frame length")

// helloFrame builds a hello frame announcing the local node id.
func helloFrame(id wire.NodeID) []byte {
	out := make([]byte, lenSize+1+4)
	binary.BigEndian.PutUint32(out, 1+4)
	out[lenSize] = frameHello
	binary.BigEndian.PutUint32(out[lenSize+1:], uint32(id))
	return out
}

// encodeMsgFrame wire-encodes msg into its frame — length, type, checksum,
// encoding, payloads by reference — in one buffer sized up front (msg
// carries the body of its type, as everything link.Send has sized does).
func encodeMsgFrame(msg *wire.Message) (frame, error) {
	size := lenSize + 1 + wire.ChecksumSize + wire.EncodedSize(msg)
	head, rest, err := wire.AppendSplit(make([]byte, lenSize+1, size-wire.PayloadBytes(msg)), msg)
	if err != nil {
		return frame{}, err
	}
	binary.BigEndian.PutUint32(head, uint32(size-lenSize))
	head[lenSize] = frameMsg
	return frame{head, rest}, nil
}

// readFrame reads one frame from r into buf (grown as needed) and
// returns the type, the body (aliasing buf — valid until buf is next
// read into), and the buffer used. The length prefix is peeked from r: a
// warm reader allocates nothing, a nil buf the frame's size exactly.
func readFrame(r *bufio.Reader, buf []byte, maxFrame int) (typ byte, body, out []byte, err error) {
	prefix, err := r.Peek(lenSize)
	if err != nil {
		return 0, nil, buf, err
	}
	n := int(binary.BigEndian.Uint32(prefix))
	if n < 1 || n > maxFrame {
		return 0, nil, buf, fmt.Errorf("%w: %d", errFrameLength, n)
	}
	r.Discard(lenSize) // cannot fail: the bytes were peeked
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err = io.ReadFull(r, buf); err != nil {
		return 0, nil, buf, err
	}
	return buf[0], buf[1:], buf, nil
}
