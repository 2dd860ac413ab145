// Package bloom implements the Bloom filter used by PDS redundancy
// detection (§III-B.2, §V-3).
//
// A consumer appends to each discovery query a Bloom filter of the
// metadata entries it has already received; nodes en route test entries
// against the filter before sending them back, and insert what they do
// send, so the same entry is never transmitted to the consumer twice.
//
// Per the paper's §V-3, the filter is salted per discovery round with a
// different hash seed: an entry that is a false positive in one round is
// very unlikely to remain one in the next (0.02 after 2 rounds, 0.003
// after 3 for 10,000 entries at 1% FPR), so a bounded filter size still
// converges to full recall over rounds.
package bloom

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Filter is a classic Bloom filter with double hashing. The zero Filter
// is unusable; construct with New or NewForCapacity.
type Filter struct {
	bits    []byte
	nbits   uint64
	nhashes uint32
	salt    uint64
	count   uint64 // inserted elements, approximate occupancy signal
	// overAt is the least count at which EstimatedFPR exceeds 0.25: a
	// property of the geometry, worked out once where the filter is made.
	overAt uint64
}

// Default sizing targets used when the caller does not specify them.
const (
	// DefaultFalsePositiveRate is the per-round FPR target (§V-3: "a
	// small (e.g., < 0.01) false positive rate").
	DefaultFalsePositiveRate = 0.01
	// MaxBits caps the filter size so one filter always fits in a query
	// message even for very large received sets; salting across rounds
	// compensates for the elevated FPR (§V-3).
	MaxBits = 1 << 17 // 16 KiB
)

// New returns a filter with the exact geometry given. nbits is rounded up
// to a multiple of 8 and clamped to at least 8; nhashes is clamped to at
// least 1. salt distinguishes hash families across rounds.
func New(nbits uint64, nhashes uint32, salt uint64) *Filter {
	if nbits < 8 {
		nbits = 8
	}
	nbits = (nbits + 7) / 8 * 8
	if nbits > MaxBits {
		nbits = MaxBits
	}
	if nhashes == 0 {
		nhashes = 1
	}
	return &Filter{
		bits:    make([]byte, nbits/8),
		nbits:   nbits,
		nhashes: nhashes,
		salt:    salt,
		overAt:  overloadAt(nbits, nhashes),
	}
}

// NewForCapacity returns a filter sized for n expected elements at the
// target false-positive rate, using the standard formulas
// m = -n·ln(p)/ln(2)² and k = (m/n)·ln(2). The size is capped at MaxBits.
func NewForCapacity(n uint64, fpr float64, salt uint64) *Filter {
	if n == 0 {
		n = 1
	}
	if fpr <= 0 || fpr >= 1 {
		fpr = DefaultFalsePositiveRate
	}
	m := uint64(math.Ceil(-float64(n) * math.Log(fpr) / (math.Ln2 * math.Ln2)))
	if m > MaxBits {
		// §V-3: the filter size is bounded; the hash count must be
		// optimized for the clamped geometry or large sets degenerate.
		m = MaxBits
	}
	k := uint32(math.Round(float64(m) / float64(n) * math.Ln2))
	if k == 0 {
		k = 1
	}
	return New(m, k, salt)
}

// FNV-1a, 64 bit (hash/fnv's New64a, unrolled so both lanes run in one
// loop and nothing is boxed behind a hash.Hash).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashPair returns the two independent base hashes for double hashing:
// h1 is FNV-1a over the big-endian salt then the key; h2 is the same
// stream behind a distinct prefix byte, so it is independent of h1 for
// the scheme g_i = h1 + i*h2, and forced odd so strides cover the table.
//
//pds:hotpath
func (f *Filter) hashPair(key string) (uint64, uint64) {
	h1 := uint64(fnvOffset)
	h2 := uint64(fnvOffset) ^ 0xd6
	h2 *= fnvPrime
	for shift := 56; shift >= 0; shift -= 8 {
		b := uint64(byte(f.salt >> shift))
		h1 = (h1 ^ b) * fnvPrime
		h2 = (h2 ^ b) * fnvPrime
	}
	for i := 0; i < len(key); i++ {
		b := uint64(key[i])
		h1 = (h1 ^ b) * fnvPrime
		h2 = (h2 ^ b) * fnvPrime
	}
	return h1, h2 | 1
}

// Add inserts the key. The distinct-element counter only advances when
// at least one bit was newly set, so repeated insertions of the same
// keys (which en-route rewriting does constantly) do not inflate the
// occupancy estimate.
//
//pds:hotpath
func (f *Filter) Add(key string) {
	h1, h2 := f.hashPair(key)
	changed := false
	for i := uint32(0); i < f.nhashes; i++ {
		bit := (h1 + uint64(i)*h2) % f.nbits
		mask := byte(1) << (bit % 8)
		if f.bits[bit/8]&mask == 0 {
			f.bits[bit/8] |= mask
			changed = true
		}
	}
	if changed {
		f.count++
	}
}

// Contains reports whether the key may have been inserted. False
// positives are possible; false negatives are not.
//
//pds:hotpath
func (f *Filter) Contains(key string) bool {
	h1, h2 := f.hashPair(key)
	for i := uint32(0); i < f.nhashes; i++ {
		bit := (h1 + uint64(i)*h2) % f.nbits
		if f.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

// Count returns the number of Add calls (an upper bound on distinct
// elements).
func (f *Filter) Count() uint64 { return f.count }

// Bits returns the size of the bit table.
func (f *Filter) Bits() uint64 { return f.nbits }

// Hashes returns the number of hash functions.
func (f *Filter) Hashes() uint32 { return f.nhashes }

// Salt returns the hash-family salt.
func (f *Filter) Salt() uint64 { return f.salt }

// EstimatedFPR returns the expected false-positive rate given the current
// occupancy: (1 - e^{-kn/m})^k.
func (f *Filter) EstimatedFPR() float64 { return fprAt(f.nbits, f.nhashes, f.count) }

func fprAt(nbits uint64, nhashes uint32, count uint64) float64 {
	if nbits == 0 {
		return 1
	}
	k := float64(nhashes)
	exp := -k * float64(count) / float64(nbits)
	return math.Pow(1-math.Exp(exp), k)
}

// overloadAt returns the least count at which a filter of the geometry is
// Overloaded, by bisection: the estimate only rises with the count and is
// past 0.25 by count = nbits whatever the hash count ((1-e^-k)^k >= 0.63).
func overloadAt(nbits uint64, nhashes uint32) uint64 {
	return uint64(sort.Search(int(nbits), func(count int) bool {
		return fprAt(nbits, nhashes, uint64(count)) > 0.25
	}))
}

// Overloaded reports whether so many elements were inserted (relative
// to the filter's geometry) that Contains answers are untrustworthy.
// PDS queries carry filters sized by the consumer, but en-route
// rewriting inserts every entry served along the way; once the
// estimated false-positive rate passes 25% the filter must fail open —
// pruning on it would discard entries the consumer never received.
// Below that, residual false positives are tolerated: the per-round
// salting re-randomizes them, exactly the §V-3 argument (the paper
// quotes ~14% per-round FPR converging to 0.02 joint FPR in 2 rounds
// for 10,000 entries on a bounded filter).
//
// A serve pass asks once per (entry, query), so the answer is one
// comparison against the geometry's threshold — a read, safe on a filter
// inside a frozen message.
//
//pds:hotpath
func (f *Filter) Overloaded() bool { return f.count >= f.overAt }

// Clone returns a deep copy of the filter.
func (f *Filter) Clone() *Filter {
	out := &Filter{
		bits:    make([]byte, len(f.bits)),
		nbits:   f.nbits,
		nhashes: f.nhashes,
		salt:    f.salt,
		count:   f.count,
		overAt:  f.overAt,
	}
	copy(out.bits, f.bits)
	return out
}

// EncodedSize returns the number of bytes AppendBinary writes. The byte
// cost of carrying the filter inside query messages is charged to the
// message-overhead metric.
//
//pds:hotpath
func (f *Filter) EncodedSize() int {
	return uvarintLen(f.nbits) + uvarintLen(uint64(f.nhashes)) +
		uvarintLen(f.salt) + uvarintLen(f.count) + len(f.bits)
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

// AppendBinary appends the wire form: nbits, nhashes, salt, count, table.
func (f *Filter) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, f.nbits)
	dst = binary.AppendUvarint(dst, uint64(f.nhashes))
	dst = binary.AppendUvarint(dst, f.salt)
	dst = binary.AppendUvarint(dst, f.count)
	dst = append(dst, f.bits...)
	return dst
}

var errTruncated = errors.New("bloom: truncated encoding")

// Decode decodes a filter encoded by AppendBinary and returns the
// remaining bytes.
func Decode(src []byte) (*Filter, []byte, error) {
	nbits, used := binary.Uvarint(src)
	if used <= 0 {
		return nil, nil, errTruncated
	}
	src = src[used:]
	nhashes, used := binary.Uvarint(src)
	if used <= 0 {
		return nil, nil, errTruncated
	}
	src = src[used:]
	salt, used := binary.Uvarint(src)
	if used <= 0 {
		return nil, nil, errTruncated
	}
	src = src[used:]
	count, used := binary.Uvarint(src)
	if used <= 0 {
		return nil, nil, errTruncated
	}
	src = src[used:]
	if nbits == 0 || nbits%8 != 0 || nbits > MaxBits {
		return nil, nil, fmt.Errorf("bloom: invalid table size %d", nbits)
	}
	nbytes := int(nbits / 8)
	if len(src) < nbytes {
		return nil, nil, errTruncated
	}
	f := &Filter{
		bits:    make([]byte, nbytes),
		nbits:   nbits,
		nhashes: uint32(nhashes),
		salt:    salt,
		count:   count,
		overAt:  overloadAt(nbits, uint32(nhashes)),
	}
	copy(f.bits, src[:nbytes])
	return f, src[nbytes:], nil
}
