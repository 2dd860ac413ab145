package diskstore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// Record framing. Every record in a segment file is
//
//	crc32c(4, LE) | bodyLen(4, LE) | body
//
// where the checksum covers body only and
//
//	body = flags(1) | keyLen(uvarint) | key | metaLen(uvarint) | meta |
//	       payloadLen(uvarint) | payload
//
// The fixed 8-byte header makes the recovery scan self-synchronizing in
// the only way an append-only log needs: a record either decodes
// completely and checksums clean, or the scan knows exactly how many
// bytes the (possibly lying) length field claims and can step over a
// corrupt body, and a header that claims more bytes than the segment
// holds marks a torn tail.
const (
	recordHeaderSize = 8
	// maxBodyBytes rejects absurd length fields before they become
	// allocation hints: a record holds one 256 KB chunk plus a short
	// descriptor, so 16 MB is generous headroom for any future payload.
	maxBodyBytes = 16 << 20
)

// Record flags.
const (
	flagOwned      = 1 << 0 // owned (durable) record, survives WipeCached
	flagTombstone  = 1 << 1 // deletion marker: the key's prior records are dead
	flagHasPayload = 1 << 2 // record carries payload bytes (vs entry-only)
)

// castagnoli is the CRC-32C polynomial table that seals each log
// record. It is the store's own choice: the socket carriers frame with
// wire.AppendChecked's IEEE CRC-32.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// record is one decoded log record.
type record struct {
	Key        string
	Meta       []byte // encoded descriptor (attr.Descriptor.AppendBinary)
	Payload    []byte
	Owned      bool
	Tombstone  bool
	HasPayload bool
}

// Decode errors, ordered by how much the recovery scan can still trust
// the stream after seeing them.
var (
	// errTruncated: the buffer ends inside the record — a torn tail.
	errTruncated = errors.New("diskstore: truncated record")
	// errCorrupt: the length field was plausible but the checksum (or
	// body structure) failed — the scan may skip the claimed length.
	errCorrupt = errors.New("diskstore: corrupt record")
	// errBadLength: the header itself is garbage (absurd length); the
	// rest of the segment cannot be trusted.
	errBadLength = errors.New("diskstore: implausible record length")
)

// appendRecord appends the framed record to dst and returns it.
func appendRecord(dst []byte, r record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	var flags byte
	if r.Owned {
		flags |= flagOwned
	}
	if r.Tombstone {
		flags |= flagTombstone
	}
	if r.HasPayload {
		flags |= flagHasPayload
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(r.Key)))
	dst = append(dst, r.Key...)
	dst = binary.AppendUvarint(dst, uint64(len(r.Meta)))
	dst = append(dst, r.Meta...)
	dst = binary.AppendUvarint(dst, uint64(len(r.Payload)))
	dst = append(dst, r.Payload...)
	body := dst[start+recordHeaderSize:]
	binary.LittleEndian.PutUint32(dst[start:], crc32.Checksum(body, castagnoli))
	binary.LittleEndian.PutUint32(dst[start+4:], uint32(len(body)))
	return dst
}

// encodedRecordSize returns the framed size appendRecord would produce.
func encodedRecordSize(r record) int {
	return recordHeaderSize + 1 +
		uvarintLen(uint64(len(r.Key))) + len(r.Key) +
		uvarintLen(uint64(len(r.Meta))) + len(r.Meta) +
		uvarintLen(uint64(len(r.Payload))) + len(r.Payload)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// decodeRecord decodes one record from the front of src. It returns the
// record and the total bytes consumed (header + body). On errCorrupt the
// returned size is still header + claimed body length, so a scan can
// step over the damaged record; on errTruncated or errBadLength the
// stream beyond the current offset is unusable.
func decodeRecord(src []byte) (record, int, error) {
	if len(src) < recordHeaderSize {
		return record{}, 0, errTruncated
	}
	sum := binary.LittleEndian.Uint32(src)
	bodyLen := int(binary.LittleEndian.Uint32(src[4:]))
	if bodyLen < 1 || bodyLen > maxBodyBytes {
		return record{}, 0, errBadLength
	}
	if len(src) < recordHeaderSize+bodyLen {
		return record{}, 0, errTruncated
	}
	total := recordHeaderSize + bodyLen
	body := src[recordHeaderSize:total]
	if crc32.Checksum(body, castagnoli) != sum {
		return record{}, total, errCorrupt
	}
	r, err := decodeBody(body)
	if err != nil {
		// A clean checksum with a malformed body means a buggy or
		// foreign writer; treat it like corruption, the frame is whole.
		return record{}, total, errCorrupt
	}
	return r, total, nil
}

// decodeBody parses the checksummed portion of a record.
func decodeBody(body []byte) (record, error) {
	var r record
	flags := body[0]
	r.Owned = flags&flagOwned != 0
	r.Tombstone = flags&flagTombstone != 0
	r.HasPayload = flags&flagHasPayload != 0
	rest := body[1:]
	key, rest, err := decodeBlob(rest)
	if err != nil {
		return record{}, err
	}
	r.Key = string(key)
	if r.Meta, rest, err = decodeBlob(rest); err != nil {
		return record{}, err
	}
	if r.Payload, rest, err = decodeBlob(rest); err != nil {
		return record{}, err
	}
	if len(rest) != 0 {
		return record{}, errCorrupt
	}
	return r, nil
}

// decodeBlob reads a uvarint-length-prefixed byte slice. The returned
// slice aliases src; callers that retain it must copy.
func decodeBlob(src []byte) ([]byte, []byte, error) {
	n, used := binary.Uvarint(src)
	if used <= 0 || n > uint64(len(src)-used) {
		return nil, nil, errCorrupt
	}
	return src[used : used+int(n)], src[used+int(n):], nil
}
