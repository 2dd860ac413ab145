package attr

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// Well-known attribute names used by the PDS system itself. Applications
// are free to define additional attributes in their own namespaces.
const (
	AttrNamespace   = "namespace"
	AttrDataType    = "datatype"
	AttrName        = "name"
	AttrTime        = "time"
	AttrTotalChunks = "totalchunks"
	AttrChunkID     = "chunkid"
)

// Reserved values for system traffic (metadata discovery and CDI
// retrieval use the "system" namespace; see paper §III-A and §IV-A).
const (
	NamespaceSystem  = "system"
	DataTypeMetadata = "metadata"
	DataTypeCDI      = "cdi"
)

// Descriptor is the metadata describing one data item or chunk: a set of
// named attribute values. Descriptors are value types; the zero
// Descriptor is empty and matches nothing.
//
// A descriptor doubles as a metadata entry: its presence in a node's data
// store indicates the corresponding data item is (probably) available
// somewhere in the network (§II-C).
type Descriptor struct {
	attrs map[string]Value
	// key is the canonical form, computed eagerly at construction:
	// descriptors are immutable, and Key() sits on every hot path
	// (store indexing, Bloom tests, dedup), so it must be O(1).
	key string
}

// NewDescriptor returns an empty descriptor ready for Set calls.
func NewDescriptor() Descriptor {
	return Descriptor{attrs: make(map[string]Value)}
}

// Set returns a copy of d with the named attribute set to v. The original
// descriptor is not modified, so descriptors can be shared freely.
func (d Descriptor) Set(name string, v Value) Descriptor {
	out := make(map[string]Value, len(d.attrs)+1)
	for k, val := range d.attrs {
		out[k] = val
	}
	out[name] = v
	return newDescriptor(out)
}

// newDescriptor builds a descriptor around the attribute map, computing
// the canonical key once.
func newDescriptor(attrs map[string]Value) Descriptor {
	d := Descriptor{attrs: attrs}
	d.key = d.computeKey()
	return d
}

// Get returns the named attribute value and whether it is present.
func (d Descriptor) Get(name string) (Value, bool) {
	v, ok := d.attrs[name]
	return v, ok
}

// Len reports the number of attributes.
func (d Descriptor) Len() int { return len(d.attrs) }

// Names returns the attribute names in sorted order.
func (d Descriptor) Names() []string {
	names := make([]string, 0, len(d.attrs))
	for k := range d.attrs {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Namespace returns the namespace attribute, or "" when absent.
func (d Descriptor) Namespace() string {
	v, _ := d.Get(AttrNamespace)
	return v.StringVal()
}

// DataType returns the datatype attribute, or "" when absent.
func (d Descriptor) DataType() string {
	v, _ := d.Get(AttrDataType)
	return v.StringVal()
}

// Name returns the name attribute, or "" when absent.
func (d Descriptor) Name() string {
	v, _ := d.Get(AttrName)
	return v.StringVal()
}

// ChunkID returns the chunkid attribute and whether it is present. A
// descriptor with a chunk id describes one chunk of a larger item.
func (d Descriptor) ChunkID() (int, bool) {
	v, ok := d.Get(AttrChunkID)
	if !ok || v.Kind() != KindInt {
		return 0, false
	}
	return int(v.IntVal()), true
}

// TotalChunks returns the totalchunks attribute, or 0 when absent.
func (d Descriptor) TotalChunks() int {
	v, ok := d.Get(AttrTotalChunks)
	if !ok || v.Kind() != KindInt {
		return 0
	}
	return int(v.IntVal())
}

// WithChunk returns the descriptor of chunk id within the item described
// by d: the item descriptor with a chunkid attribute appended (§II-B).
func (d Descriptor) WithChunk(id int) Descriptor {
	return d.Set(AttrChunkID, Int(int64(id)))
}

// ItemDescriptor returns the descriptor with any chunkid attribute
// removed — i.e. the descriptor of the whole item a chunk belongs to.
func (d Descriptor) ItemDescriptor() Descriptor {
	if _, ok := d.attrs[AttrChunkID]; !ok {
		return d
	}
	out := make(map[string]Value, len(d.attrs)-1)
	for k, v := range d.attrs {
		if k != AttrChunkID {
			out[k] = v
		}
	}
	return newDescriptor(out)
}

// ItemKey returns ItemDescriptor().Key(). chunkid sorts before every
// standard attribute name, so the key of a standard chunk descriptor
// opens with the chunk id's segment (name length, name, value) and the
// item key is the rest of it, returned without building anything.
//
//pds:hotpath
func (d Descriptor) ItemKey() string {
	const name = "\x07" + AttrChunkID
	v, ok := d.attrs[AttrChunkID]
	switch {
	case !ok:
		return d.Key()
	case strings.HasPrefix(d.key, name):
		return d.key[len(name)+v.encodedSize():]
	}
	return d.ItemDescriptor().Key()
}

// Equal reports whether two descriptors have identical attribute sets.
func (d Descriptor) Equal(o Descriptor) bool {
	if d.key != "" && o.key != "" {
		return d.key == o.key
	}
	if len(d.attrs) != len(o.attrs) {
		return false
	}
	for k, v := range d.attrs {
		ov, ok := o.attrs[k]
		if !ok || !v.Equal(ov) {
			return false
		}
	}
	return true
}

// Key returns a canonical string key for the descriptor: attributes in
// sorted name order with their binary-encoded values. Two descriptors
// have equal keys iff they are Equal. Keys index data stores, Bloom
// filters and response deduplication. The key is memoized at
// construction; Key is O(1) on any descriptor built through the public
// constructors.
func (d Descriptor) Key() string {
	if d.key != "" || len(d.attrs) == 0 {
		return d.key
	}
	return d.computeKey()
}

func (d Descriptor) computeKey() string {
	var b []byte
	for _, name := range d.Names() {
		b = binary.AppendUvarint(b, uint64(len(name)))
		b = append(b, name...)
		b = d.attrs[name].appendBinary(b)
	}
	return string(b)
}

// String renders the descriptor for logs: {name=value, ...} sorted.
func (d Descriptor) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, name := range d.Names() {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s=%s", name, d.attrs[name])
	}
	sb.WriteByte('}')
	return sb.String()
}

// AppendBinary appends the canonical wire form: uvarint attribute count,
// then sorted (name, value) pairs. The pairs are exactly the memoized
// Key bytes, so for any descriptor built through the public
// constructors this is a single copy with no allocation — descriptors
// sit inside every response entry, so the encode path leans on this.
func (d Descriptor) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(d.attrs)))
	if d.key != "" || len(d.attrs) == 0 {
		return append(dst, d.key...)
	}
	for _, name := range d.Names() {
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
		dst = d.attrs[name].appendBinary(dst)
	}
	return dst
}

// EncodedSize returns the number of bytes AppendBinary would write.
// Like AppendBinary it reads the memoized key, so the simulator can
// charge airtime per descriptor without serializing anything; the
// no-key fallback sums sizes analytically rather than encoding.
//
//pds:hotpath
func (d Descriptor) EncodedSize() int {
	n := uvarintLen(uint64(len(d.attrs)))
	if d.key != "" || len(d.attrs) == 0 {
		return n + len(d.key)
	}
	for _, name := range d.Names() {
		n += uvarintLen(uint64(len(name))) + len(name)
		n += d.attrs[name].encodedSize()
	}
	return n
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

// DecodeDescriptor decodes a descriptor encoded by AppendBinary and
// returns the remaining bytes.
func DecodeDescriptor(src []byte) (Descriptor, []byte, error) {
	n, used := binary.Uvarint(src)
	if used <= 0 {
		return Descriptor{}, nil, errTruncated
	}
	src = src[used:]
	// Every attribute costs at least two bytes; a count beyond that is
	// a malformed (or hostile) frame, and must not become a gigantic
	// allocation hint.
	if n > uint64(len(src))/2 {
		return Descriptor{}, nil, errTruncated
	}
	attrs := make(map[string]Value, n)
	for i := uint64(0); i < n; i++ {
		nameLen, used := binary.Uvarint(src)
		if used <= 0 || uint64(len(src)-used) < nameLen {
			return Descriptor{}, nil, errTruncated
		}
		name := string(src[used : used+int(nameLen)])
		src = src[used+int(nameLen):]
		var (
			v   Value
			err error
		)
		v, src, err = decodeValue(src)
		if err != nil {
			return Descriptor{}, nil, fmt.Errorf("descriptor attribute %q: %w", name, err)
		}
		attrs[name] = v
	}
	return newDescriptor(attrs), src, nil
}
