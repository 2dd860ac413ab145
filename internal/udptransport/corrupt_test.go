package udptransport

import (
	"errors"
	"testing"

	"pds/internal/attr"
	"pds/internal/wire"
)

// sampleMessages builds one message of each frame type, the corpus the
// corruption tests and the fuzz target mutate.
func sampleMessages(t testing.TB) []*wire.Message {
	payload := make([]byte, 600)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	return []*wire.Message{
		{
			Type:       wire.TypeQuery,
			TransmitID: 9,
			From:       1,
			Query: &wire.Query{
				ID:   42,
				Kind: wire.KindMetadata,
				Sel:  attr.NewQuery(attr.Eq("a", attr.Int(1))),
			},
		},
		{
			Type:       wire.TypeResponse,
			TransmitID: 10,
			From:       2,
			Response: &wire.Response{
				ID:        42,
				Kind:      wire.KindChunk,
				Receivers: []wire.NodeID{1},
				Blobs:     []wire.Blob{{Desc: attr.NewDescriptor().Set("c", attr.Int(0)), Payload: payload}},
			},
		},
		{
			Type:       wire.TypeAck,
			TransmitID: 11,
			From:       1,
			Ack:        &wire.Ack{MsgID: 10, From: 1},
		},
	}
}

// sampleDatagrams frames the corpus as Send does.
func sampleDatagrams(t testing.TB) [][]byte {
	var out [][]byte
	for _, m := range sampleMessages(t) {
		dg, err := wire.AppendChecked(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, dg)
	}
	return out
}

// TestDecodeDatagramCorruption is the table test for the receive path's
// central safety property: a truncated or bit-flipped datagram must
// never panic the decoder (wire.DecodeChecked, which the face mesh's
// frames go through too) and never surface as a message.
func TestDecodeDatagramCorruption(t *testing.T) {
	for di, dg := range sampleDatagrams(t) {
		// The intact datagram must decode.
		if _, err := wire.DecodeChecked(dg); err != nil {
			t.Fatalf("datagram %d: intact decode failed: %v", di, err)
		}

		// Every truncation must be rejected — the CRC covers the full
		// payload, so any missing suffix fails the framing check.
		for n := 0; n < len(dg); n++ {
			if msg, err := wire.DecodeChecked(dg[:n]); err == nil {
				t.Fatalf("datagram %d truncated to %d bytes decoded: %+v", di, n, msg)
			} else if !errors.Is(err, wire.ErrChecksum) {
				t.Fatalf("datagram %d truncated to %d bytes: want checksum error, got %v", di, n, err)
			}
		}

		// Every single-bit flip must be rejected: CRC32 detects all
		// single-bit errors, whether they hit the header or the payload.
		for pos := 0; pos < len(dg); pos++ {
			for bit := 0; bit < 8; bit++ {
				flipped := append([]byte(nil), dg...)
				flipped[pos] ^= 1 << bit
				if msg, err := wire.DecodeChecked(flipped); err == nil {
					t.Fatalf("datagram %d with bit %d of byte %d flipped decoded: %+v", di, bit, pos, msg)
				}
			}
		}
	}

	// Degenerate inputs.
	for _, in := range [][]byte{nil, {}, {1}, {1, 2, 3}} {
		if _, err := wire.DecodeChecked(in); !errors.Is(err, wire.ErrChecksum) {
			t.Fatalf("short input %v: want checksum error, got %v", in, err)
		}
	}
}

// FuzzDecodeDatagram hammers the datagram decode path with arbitrary
// bytes, seeded with the valid corpus and mutations of it. It must
// never panic, and anything it accepts must re-encode canonically —
// the same contract wire.FuzzDecode enforces one layer down.
func FuzzDecodeDatagram(f *testing.F) {
	for _, dg := range sampleDatagrams(f) {
		f.Add(dg)
		f.Add(dg[:len(dg)/2])
		f.Add(dg[wire.ChecksumSize:]) // framing stripped: raw codec bytes
	}
	f.Add([]byte{})
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := wire.DecodeChecked(data)
		if err != nil {
			return
		}
		dg, err := wire.AppendChecked(nil, msg)
		if err != nil {
			t.Fatalf("accepted message does not re-encode: %v", err)
		}
		if _, err := wire.DecodeChecked(dg); err != nil {
			t.Fatalf("re-framed message does not decode: %v", err)
		}
	})
}
