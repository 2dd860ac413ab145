package store

import (
	"time"

	"pds/internal/attr"
	"pds/internal/trace"
)

// PayloadBackend is the optional durable tier under a DataStore. The
// DataStore keeps deciding *what* lives in the cache (the cache strategy
// admits, the oldest payload leaves first, expiries bound leases); the
// backend decides
// *where* the bytes survive: owned records are written through and
// outlive a crash, cached payloads evicted from RAM can keep serving
// from disk ("spilled"), and WipeCached clears only the volatile tier.
//
// Methods return no errors: a node cannot do anything useful about a
// failing disk mid-protocol, so implementations absorb failures (the
// diskstore backend counts them) and report per-record success where
// the store must know — a payload that failed to persist must not be
// treated as spilled.
type PayloadBackend interface {
	// PutEntry records an owned, payload-less metadata entry.
	PutEntry(d attr.Descriptor)
	// PutPayload stores payload under d's key; owned records survive
	// WipeCached. It reports whether the record was durably stored.
	PutPayload(d attr.Descriptor, payload []byte, owned bool) bool
	// GetPayload reads the payload stored for key.
	GetPayload(key string) ([]byte, bool)
	// HasPayload reports whether a payload-bearing record exists.
	HasPayload(key string) bool
	// DeletePayload removes the record for key.
	DeletePayload(key string)
	// WipeCached removes every non-owned record — crash semantics —
	// except in backends configured with a persistent cache tier.
	// Owned records are never touched.
	WipeCached()
	// Restore replays every surviving record, in deterministic (key
	// sorted) order.
	Restore(fn func(d attr.Descriptor, payload []byte, hasPayload, owned bool))
}

// tracerSettable is implemented by backends that emit trace events
// (spill writes/loads, compactions, recoveries).
type tracerSettable interface {
	SetTracer(tr *trace.NodeTracer)
}

// SetBackend installs the durable payload tier. Install it before any
// data lands in the store (node construction time); reload surviving
// records with Recover.
func (s *DataStore) SetBackend(b PayloadBackend) {
	s.backend = b
	if bt, ok := b.(tracerSettable); ok {
		bt.SetTracer(s.tr)
	}
}

// HasBackend reports whether a durable tier is attached.
func (s *DataStore) HasBackend() bool { return s.backend != nil }

// Recover empties the store and reloads it from the attached backend:
// owned records (entries and payloads) come back
// exactly; cached payloads surviving in a persistent cache tier come
// back spilled — bytes stay on disk, served on demand — with a fresh
// entry lease of entryTTL. Without a backend it simply empties the
// store.
func (s *DataStore) Recover(now, entryTTL time.Duration) {
	s.reset()
	if s.backend == nil {
		return
	}
	s.backend.Restore(func(d attr.Descriptor, payload []byte, hasPayload, owned bool) {
		switch {
		case owned && hasPayload:
			s.hold(s.setEntry(d, true, 0), held{bytes: payload, owned: true})
		case owned:
			s.setEntry(d, true, 0)
		case hasPayload:
			s.hold(s.setEntry(d, false, now+entryTTL), held{spilled: true})
		}
	})
}
