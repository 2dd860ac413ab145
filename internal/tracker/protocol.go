// Package tracker is the rendezvous plane for deployments that span
// more than one broadcast domain: a TTL-heartbeat peer index served
// over a tiny UDP request/response protocol, and a client that fails
// over across several trackers and keeps serving a stale peer cache
// when every tracker is down — the degraded-but-alive behavior the
// tiered retrieval path builds on.
//
// The protocol is deliberately minimal: a node announces (id, address,
// ttl) and re-announces within the TTL to stay listed; a query returns
// every live peer with its address and announce age. Packets carry the
// same CRC32 framing discipline as the other real transports.
package tracker

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"pds/internal/wire"
)

// Protocol ops.
const (
	OpAnnounce = 1 // node announces (id, addr, ttl)
	OpQuery    = 2 // node asks for the live peer list
	OpPeers    = 3 // server reply: live peers
	OpAck      = 4 // server reply: announce accepted
)

const (
	protoVersion = 1
	crcSize      = 4
	headerSize   = crcSize + 2 // crc, version, op

	// MaxPacket bounds tracker datagrams; a full reply with MaxPeers
	// maximal entries fits.
	MaxPacket = 64 << 10
	// MaxAddr bounds one announced address.
	MaxAddr = 256
	// MaxPeers bounds one reply's peer list.
	MaxPeers = 1024
)

var (
	errShort    = errors.New("tracker: packet too short")
	errChecksum = errors.New("tracker: packet checksum mismatch")
	errVersion  = errors.New("tracker: unknown protocol version")
	errOp       = errors.New("tracker: unknown op")
	errBounds   = errors.New("tracker: field out of bounds")
)

// Peer is one live index entry.
type Peer struct {
	ID wire.NodeID
	// Addr is the peer's face listen address as announced.
	Addr string
	// Age is how long ago the peer last announced (reply packets).
	Age time.Duration
}

// Packet is one protocol message, either direction.
type Packet struct {
	Op byte
	// Node and TTL and Addr are the announce fields (OpAnnounce).
	Node wire.NodeID
	TTL  time.Duration
	Addr string
	// Peers is the reply list (OpPeers).
	Peers []Peer
}

// Encode serializes a packet with its CRC framing.
func Encode(p *Packet) ([]byte, error) {
	out := make([]byte, headerSize, headerSize+16)
	out[crcSize] = protoVersion
	out[crcSize+1] = p.Op
	switch p.Op {
	case OpAnnounce:
		if len(p.Addr) > MaxAddr {
			return nil, errBounds
		}
		out = binary.BigEndian.AppendUint32(out, uint32(p.Node))
		out = binary.BigEndian.AppendUint32(out, clampMillis(p.TTL))
		out = binary.BigEndian.AppendUint16(out, uint16(len(p.Addr)))
		out = append(out, p.Addr...)
	case OpQuery, OpAck:
		// Empty body.
	case OpPeers:
		if len(p.Peers) > MaxPeers {
			return nil, errBounds
		}
		out = binary.BigEndian.AppendUint16(out, uint16(len(p.Peers)))
		for _, pe := range p.Peers {
			if len(pe.Addr) > MaxAddr {
				return nil, errBounds
			}
			out = binary.BigEndian.AppendUint32(out, uint32(pe.ID))
			out = binary.BigEndian.AppendUint32(out, clampMillis(pe.Age))
			out = binary.BigEndian.AppendUint16(out, uint16(len(pe.Addr)))
			out = append(out, pe.Addr...)
		}
	default:
		return nil, errOp
	}
	if len(out) > MaxPacket {
		return nil, errBounds
	}
	binary.BigEndian.PutUint32(out, crc32.ChecksumIEEE(out[crcSize:]))
	return out, nil
}

// Decode parses and validates a packet. It never panics on arbitrary
// input and never returns a packet from damaged bytes (fuzzed).
func Decode(buf []byte) (*Packet, error) {
	if len(buf) < headerSize || len(buf) > MaxPacket {
		return nil, errShort
	}
	if binary.BigEndian.Uint32(buf) != crc32.ChecksumIEEE(buf[crcSize:]) {
		return nil, errChecksum
	}
	if buf[crcSize] != protoVersion {
		return nil, errVersion
	}
	p := &Packet{Op: buf[crcSize+1]}
	body := buf[headerSize:]
	switch p.Op {
	case OpAnnounce:
		if len(body) < 10 {
			return nil, errShort
		}
		p.Node = wire.NodeID(binary.BigEndian.Uint32(body))
		p.TTL = time.Duration(binary.BigEndian.Uint32(body[4:])) * time.Millisecond
		alen := int(binary.BigEndian.Uint16(body[8:]))
		if alen > MaxAddr || len(body) != 10+alen {
			return nil, errBounds
		}
		p.Addr = string(body[10 : 10+alen])
	case OpQuery, OpAck:
		if len(body) != 0 {
			return nil, errBounds
		}
	case OpPeers:
		if len(body) < 2 {
			return nil, errShort
		}
		n := int(binary.BigEndian.Uint16(body))
		if n > MaxPeers {
			return nil, errBounds
		}
		body = body[2:]
		p.Peers = make([]Peer, 0, min(n, 64))
		for i := 0; i < n; i++ {
			if len(body) < 10 {
				return nil, errShort
			}
			pe := Peer{
				ID:  wire.NodeID(binary.BigEndian.Uint32(body)),
				Age: time.Duration(binary.BigEndian.Uint32(body[4:])) * time.Millisecond,
			}
			alen := int(binary.BigEndian.Uint16(body[8:]))
			if alen > MaxAddr || len(body) < 10+alen {
				return nil, errBounds
			}
			pe.Addr = string(body[10 : 10+alen])
			body = body[10+alen:]
			p.Peers = append(p.Peers, pe)
		}
		if len(body) != 0 {
			return nil, errBounds
		}
	default:
		return nil, errOp
	}
	return p, nil
}

// clampMillis converts a duration to uint32 milliseconds, saturating.
func clampMillis(d time.Duration) uint32 {
	ms := d.Milliseconds()
	if ms < 0 {
		return 0
	}
	if ms > int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(ms)
}

// OpName renders the op name for diagnostics.
func OpName(op byte) string {
	switch op {
	case OpAnnounce:
		return "announce"
	case OpQuery:
		return "query"
	case OpPeers:
		return "peers"
	case OpAck:
		return "ack"
	default:
		return fmt.Sprintf("op(%d)", op)
	}
}
