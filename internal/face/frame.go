package face

import (
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

// Preframed keepalive frames, shared read-only across all faces.
var (
	pingFrame = []byte{0, 0, 0, 1, framePing}
	pongFrame = []byte{0, 0, 0, 1, framePong}
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

// encodeMsgFrame wire-encodes msg straight into its frame — length,
// type, checksummed payload — in one buffer sized up front (msg carries
// the body of its type, as everything link.Send has sized does).
func encodeMsgFrame(msg *wire.Message) ([]byte, error) {
	frame := make([]byte, lenSize+1, lenSize+1+wire.ChecksumSize+wire.EncodedSize(msg))
	frame, err := wire.AppendChecked(frame, msg)
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-lenSize))
	frame[lenSize] = frameMsg
	return frame, nil
}

// readFrame reads one frame from r into buf (grown as needed) and
// returns the type, the body (aliasing buf — valid until the next
// call), and the grown buffer. The length prefix is read into buf too: a
// warm reader allocates nothing.
func readFrame(r io.Reader, buf []byte, maxFrame int) (typ byte, body, out []byte, err error) {
	if cap(buf) < lenSize {
		buf = make([]byte, lenSize)
	}
	if _, err = io.ReadFull(r, buf[:lenSize]); err != nil {
		return 0, nil, buf, err
	}
	n := int(binary.BigEndian.Uint32(buf[:lenSize]))
	if n < 1 || n > maxFrame {
		return 0, nil, buf, fmt.Errorf("%w: %d", errFrameLength, n)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err = io.ReadFull(r, buf); err != nil {
		return 0, nil, buf, err
	}
	return buf[0], buf[1:], buf, nil
}
