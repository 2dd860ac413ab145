// Package origin provides origin-tier payload backends for the tiered
// retrieval path: when the P2P swarm and the tracker-learned edge
// peers cannot produce a chunk before the deadline, the node falls
// back to a publisher/origin copy (the graceful-degradation shape of
// opportunistic ICN search — Domingues et al., arXiv:1310.8258).
//
// Three pieces:
//
//   - HTTP: a read-only store.PayloadBackend over an HTTP(S) origin
//     (GET <base>/<url-escaped descriptor key>).
//   - Static: an in-memory read-mostly backend, for tests and demos.
//   - Handler: an http.Handler serving any store.PayloadBackend —
//     point it at a node's diskstore and that node is an origin
//     server.
//
// The diskstore backend already implements store.PayloadBackend, so a
// shared directory works as an origin without this package.
package origin

import (
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"pds/internal/attr"
	"pds/internal/store"
)

// MaxPayload bounds one origin response (guards against a
// misconfigured origin streaming forever into memory).
const MaxPayload = 64 << 20

// HTTP is a read-only store.PayloadBackend over an HTTP(S) origin.
// Write methods absorb silently (the origin is not ours to mutate),
// matching the backend contract of error-free methods.
type HTTP struct {
	base   string
	client *http.Client
}

var _ store.PayloadBackend = (*HTTP)(nil)

// NewHTTP returns a backend fetching from baseURL (e.g.
// "http://origin.example:8080/pds"). timeout bounds one fetch; zero
// selects 10s.
func NewHTTP(baseURL string, timeout time.Duration) *HTTP {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	return &HTTP{
		base:   strings.TrimRight(baseURL, "/"),
		client: &http.Client{Timeout: timeout},
	}
}

func (h *HTTP) keyURL(key string) string {
	return h.base + "/" + url.PathEscape(key)
}

// GetPayload fetches the payload for key from the origin.
func (h *HTTP) GetPayload(key string) ([]byte, bool) {
	resp, err := h.client.Get(h.keyURL(key))
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	payload, err := io.ReadAll(io.LimitReader(resp.Body, MaxPayload+1))
	if err != nil || len(payload) > MaxPayload {
		return nil, false
	}
	return payload, true
}

// HasPayload probes the origin with a HEAD request.
func (h *HTTP) HasPayload(key string) bool {
	resp, err := h.client.Head(h.keyURL(key))
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// PutEntry is a no-op: the origin is read-only.
func (h *HTTP) PutEntry(attr.Descriptor) {}

// PutPayload reports false: nothing was durably stored here.
func (h *HTTP) PutPayload(attr.Descriptor, []byte, bool) bool { return false }

// DeletePayload is a no-op: the origin is read-only.
func (h *HTTP) DeletePayload(string) {}

// WipeCached is a no-op: the origin holds no volatile tier.
func (h *HTTP) WipeCached() {}

// Restore is a no-op: an HTTP origin cannot be enumerated.
func (h *HTTP) Restore(func(attr.Descriptor, []byte, bool, bool)) {}

// Static is an in-memory store.PayloadBackend: seed it with Put and
// hand it to the origin tier in tests and single-process demos. Safe
// for concurrent use.
type Static struct {
	mu      sync.Mutex
	records map[string]staticRecord
	gets    uint64
}

type staticRecord struct {
	desc    attr.Descriptor
	payload []byte
	owned   bool
}

var _ store.PayloadBackend = (*Static)(nil)

// NewStatic returns an empty in-memory origin.
func NewStatic() *Static {
	return &Static{records: make(map[string]staticRecord)}
}

// Put seeds one payload (stored as owned: origin copies are
// authoritative).
func (s *Static) Put(d attr.Descriptor, payload []byte) {
	s.PutPayload(d, payload, true)
}

// Gets returns how many GetPayload calls hit this origin.
func (s *Static) Gets() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gets
}

func (s *Static) PutEntry(d attr.Descriptor) {
	s.mu.Lock()
	s.records[d.Key()] = staticRecord{desc: d, owned: true}
	s.mu.Unlock()
}

// PutPayload keeps payload itself, not a copy: payload bytes never change
// once handed over, as core.PublishItem relies on too.
func (s *Static) PutPayload(d attr.Descriptor, payload []byte, owned bool) bool {
	s.mu.Lock()
	s.records[d.Key()] = staticRecord{desc: d, payload: payload, owned: owned}
	s.mu.Unlock()
	return true
}

func (s *Static) GetPayload(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	r, ok := s.records[key]
	if !ok || r.payload == nil {
		return nil, false
	}
	return append([]byte(nil), r.payload...), true
}

func (s *Static) HasPayload(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.records[key]
	return ok && r.payload != nil
}

func (s *Static) DeletePayload(key string) {
	s.mu.Lock()
	delete(s.records, key)
	s.mu.Unlock()
}

func (s *Static) WipeCached() {
	s.mu.Lock()
	for k, r := range s.records {
		if !r.owned {
			delete(s.records, k)
		}
	}
	s.mu.Unlock()
}

func (s *Static) Restore(fn func(d attr.Descriptor, payload []byte, hasPayload, owned bool)) {
	s.mu.Lock()
	keys := make([]string, 0, len(s.records))
	for k := range s.records {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	recs := make([]staticRecord, len(keys))
	for i, k := range keys {
		recs[i] = s.records[k]
	}
	s.mu.Unlock()
	for _, r := range recs {
		fn(r.desc, r.payload, r.payload != nil, r.owned)
	}
}

// Handler serves a store.PayloadBackend over HTTP: GET and HEAD on
// /<url-escaped descriptor key>. Pair it with NewHTTP on the fetching
// side to turn any node's diskstore into an origin server.
func Handler(b store.PayloadBackend) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// net/http has already unescaped the path once; a second
		// unescape would eat every '%' byte a key carries.
		key := strings.TrimPrefix(r.URL.Path, "/")
		if key == "" {
			http.Error(w, "bad key", http.StatusBadRequest)
			return
		}
		switch r.Method {
		case http.MethodHead:
			if !b.HasPayload(key) {
				http.NotFound(w, r)
				return
			}
			w.WriteHeader(http.StatusOK)
		case http.MethodGet:
			payload, ok := b.GetPayload(key)
			if !ok {
				http.NotFound(w, r)
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(payload)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
}
