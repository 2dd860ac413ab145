package attr

import (
	"encoding/binary"
	"fmt"
	"slices"
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
	// attrs is the name-sorted attribute list, no name twice, nil when
	// empty. Every copy shares it and nothing writes to it after
	// construction. It sits behind a pointer so a Descriptor stays three
	// words: every message entry and store record holds one by value.
	attrs *[]attribute
	// key is the canonical form, built once at construction:
	// Key() sits on every hot path (store indexing, Bloom tests,
	// dedup), so it must be O(1).
	key string
}

// attribute is one named value of a descriptor.
type attribute struct {
	name string
	v    Value
}

// NewDescriptor returns an empty descriptor ready for Set calls.
func NewDescriptor() Descriptor { return Descriptor{} }

// newDescriptor builds a descriptor around attrs, which must be sorted
// by name with no name twice, and builds the canonical key once. A key
// that fits the stack buffer costs one allocation, the string itself.
func newDescriptor(attrs []attribute) Descriptor {
	if len(attrs) == 0 {
		return Descriptor{}
	}
	var buf [256]byte
	b := buf[:0]
	for _, a := range attrs {
		b = binary.AppendUvarint(b, uint64(len(a.name)))
		b = append(b, a.name...)
		b = a.v.appendBinary(b)
	}
	// Made past the early return, so an empty descriptor allocates nothing.
	shared := new([]attribute)
	*shared = attrs
	return Descriptor{attrs: shared, key: string(b)}
}

// list returns the attributes in name order.
func (d Descriptor) list() []attribute {
	if d.attrs == nil {
		return nil
	}
	return *d.attrs
}

// search returns where name is, or would be inserted, in the sorted
// list attrs, and whether it is there.
func search(attrs []attribute, name string) (int, bool) {
	return slices.BinarySearchFunc(attrs, name, func(a attribute, name string) int {
		return strings.Compare(a.name, name)
	})
}

// Set returns a copy of d with the named attribute set to v. The original
// descriptor is not modified, so descriptors can be shared freely.
func (d Descriptor) Set(name string, v Value) Descriptor {
	out := append(make([]attribute, 0, d.Len()+1), d.list()...)
	if i, ok := search(out, name); ok {
		out[i].v = v
	} else {
		out = slices.Insert(out, i, attribute{name, v})
	}
	return newDescriptor(out)
}

// Get returns the named attribute value and whether it is present.
//
//pds:hotpath
func (d Descriptor) Get(name string) (Value, bool) {
	attrs := d.list()
	for i := range attrs {
		if attrs[i].name == name {
			return attrs[i].v, true
		}
	}
	return Value{}, false
}

// Len reports the number of attributes.
func (d Descriptor) Len() int { return len(d.list()) }

// Names returns the attribute names in sorted order.
func (d Descriptor) Names() []string {
	attrs := d.list()
	names := make([]string, len(attrs))
	for i, a := range attrs {
		names[i] = a.name
	}
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
	attrs := d.list()
	i, ok := search(attrs, AttrChunkID)
	if !ok {
		return d
	}
	out := make([]attribute, 0, len(attrs)-1)
	return newDescriptor(append(append(out, attrs[:i]...), attrs[i+1:]...))
}

// ItemKey returns ItemDescriptor().Key(). chunkid sorts before every
// standard attribute name, so the key of a standard chunk descriptor
// opens with the chunk id's segment (name length, name, value) and the
// item key is the rest of it, returned without building anything.
//
//pds:hotpath
func (d Descriptor) ItemKey() string {
	if attrs := d.list(); len(attrs) > 0 && attrs[0].name == AttrChunkID {
		return d.key[1+len(AttrChunkID)+attrs[0].v.encodedSize():]
	}
	return d.ItemDescriptor().Key()
}

// Equal reports whether two descriptors have identical attribute sets.
func (d Descriptor) Equal(o Descriptor) bool { return d.key == o.key }

// Key returns a canonical string key for the descriptor: attributes in
// sorted name order with their binary-encoded values. Two descriptors
// have equal keys iff they are Equal. Keys index data stores, Bloom
// filters and response deduplication. The key is memoized at
// construction, so Key is O(1).
func (d Descriptor) Key() string { return d.key }

// String renders the descriptor for logs: {name=value, ...} sorted.
func (d Descriptor) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, a := range d.list() {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s=%s", a.name, a.v)
	}
	sb.WriteByte('}')
	return sb.String()
}

// AppendBinary appends the canonical wire form: uvarint attribute count,
// then the memoized Key bytes, which are the sorted (name, value) pairs.
func (d Descriptor) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(d.Len()))
	return append(dst, d.key...)
}

// EncodedSize returns the number of bytes AppendBinary would write,
// without serializing: the simulator charges airtime per descriptor.
//
//pds:hotpath
func (d Descriptor) EncodedSize() int {
	return uvarintLen(uint64(d.Len())) + len(d.key)
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
// returns the remaining bytes. It accepts only the canonical order:
// names strictly increasing, so none appears twice.
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
	attrs := make([]attribute, 0, n)
	for i := uint64(0); i < n; i++ {
		nameLen, used := binary.Uvarint(src)
		if used <= 0 || uint64(len(src)-used) < nameLen {
			return Descriptor{}, nil, errTruncated
		}
		name := src[used : used+int(nameLen)]
		if i > 0 && string(name) <= attrs[i-1].name {
			return Descriptor{}, nil, fmt.Errorf("descriptor attribute %q: names out of order or repeated", name)
		}
		src = src[used+int(nameLen):]
		a := attribute{name: string(name)}
		var err error
		if a.v, src, err = decodeValue(src); err != nil {
			return Descriptor{}, nil, fmt.Errorf("descriptor attribute %q: %w", a.name, err)
		}
		attrs = append(attrs, a)
	}
	return newDescriptor(attrs), src, nil
}
