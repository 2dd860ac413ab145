// Package pds is a content-centric peer data sharing system for
// pervasive edge environments, reproducing "Content Centric Peer Data
// Sharing in Pervasive Edge Computing Environments" (ICDCS 2017).
//
// Co-located devices publish data items described by attribute
// descriptors; peers discover what exists nearby (Peer Data Discovery)
// and retrieve items — small samples or large chunked files — from
// whichever peers hold or cached them (Peer Data Retrieval). There is
// no backend and no address-based routing: queries linger along their
// flood paths and steer responses back, overlapping demands are served
// by single mixedcast transmissions, Bloom filters are rewritten
// en route to suppress redundant transfers, and every node caches what
// it relays or overhears.
//
// The package offers two ways to run:
//
//   - A real-time Node bound to a Transport (UDP broadcast sockets in
//     package terms, or anything implementing Transport), for actual
//     peer-to-peer sharing between processes or machines.
//   - A deterministic Sim harness that deploys many nodes on a
//     simulated broadcast radio medium, used by the examples, the
//     benchmark suite and the paper-reproduction experiments.
//
// See README.md for a quickstart and DESIGN.md for the architecture.
package pds

import (
	"pds/internal/attr"
	"pds/internal/core"
	"pds/internal/wire"
)

// Descriptor is the metadata describing a data item or chunk: a set of
// named, typed attribute values (§II-B of the paper).
type Descriptor = attr.Descriptor

// Value is one typed attribute value.
type Value = attr.Value

// Query selects descriptors by a conjunction of predicates (§II-C).
type Query = attr.Query

// Predicate constrains one attribute of a descriptor.
type Predicate = attr.Predicate

// NodeID identifies a node within a deployment.
type NodeID = wire.NodeID

// Message is a PDS wire message; only custom Transport implementations
// need to handle it directly.
type Message = wire.Message

// Ack is the per-hop acknowledgement body of a Message.
type Ack = wire.Ack

// DiscoveryResult reports a finished discovery or collection.
type DiscoveryResult = core.DiscoveryResult

// RetrievalResult reports a finished large-item retrieval.
type RetrievalResult = core.RetrievalResult

// RetrieveOptions tune one retrieval session (per-session deadline,
// progress callback, prefetch-politeness request window).
type RetrieveOptions = core.RetrieveOptions

// Value constructors, re-exported from the descriptor layer.
var (
	String = attr.String
	Int    = attr.Int
	Float  = attr.Float
	Time   = attr.Time
)

// Predicate constructors, re-exported from the descriptor layer.
var (
	Eq        = attr.Eq
	Ne        = attr.Ne
	Lt        = attr.Lt
	Le        = attr.Le
	Gt        = attr.Gt
	Ge        = attr.Ge
	InRange   = attr.InRange
	Prefix    = attr.Prefix
	Exists    = attr.Exists
	NotExists = attr.NotExists
)

// Well-known attribute names (see attr package for semantics).
const (
	AttrNamespace   = attr.AttrNamespace
	AttrDataType    = attr.AttrDataType
	AttrName        = attr.AttrName
	AttrTime        = attr.AttrTime
	AttrTotalChunks = attr.AttrTotalChunks
	AttrChunkID     = attr.AttrChunkID
)

// DefaultChunkSize is the paper's 256 KB chunk size (§VI-A).
const DefaultChunkSize = core.DefaultChunkSize

// NewDescriptor returns an empty descriptor; chain Set calls to build
// it up.
func NewDescriptor() Descriptor { return attr.NewDescriptor() }

// NewQuery builds a query from predicates.
func NewQuery(preds ...Predicate) Query { return attr.NewQuery(preds...) }

// Config re-exports the protocol configuration; DefaultConfig returns
// the paper's operating point (T = 1 s, T_r = T_d = 0, Bloom
// redundancy detection, mixedcast and lingering queries enabled).
type Config = core.Config

// DefaultConfig returns the paper's parameter choices.
func DefaultConfig() Config { return core.DefaultConfig() }

// DiscoverOptions tune a discovery session.
type DiscoverOptions = core.DiscoverOptions
