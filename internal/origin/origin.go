// Package origin provides the origin tier of the tiered retrieval
// path: when the P2P swarm cannot produce a chunk within its share of
// the deadline, the node falls back to a publisher/origin copy (the
// graceful-degradation shape of opportunistic ICN search — Domingues
// et al., arXiv:1310.8258). The node only ever reads an origin, by key
// (pds.Origin).
//
// Three pieces:
//
//   - HTTP: a read-only origin over an HTTP(S) server
//     (GET <base>/<url-escaped descriptor key>).
//   - Static: an in-memory origin seeded with Put, for tests and demos.
//   - Handler: an http.Handler serving any Source — point it at a
//     node's diskstore backend and that node is an origin server.
//
// The diskstore backend already has GetPayload, so a shared directory
// works as an origin without this package.
package origin

import (
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"pds/internal/attr"
)

// MaxPayload bounds one origin response (guards against a
// misconfigured origin streaming forever into memory).
const MaxPayload = 64 << 20

// Source is what Handler serves: payloads looked up by descriptor key.
// Static and a diskstore backend both satisfy it.
type Source interface {
	GetPayload(key string) ([]byte, bool)
	HasPayload(key string) bool
}

// HTTP is a read-only origin over an HTTP(S) server.
type HTTP struct {
	base   string
	client *http.Client
}

// NewHTTP returns an origin fetching from baseURL (e.g.
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

// Static is an in-memory origin: seed it with Put and hand it to the
// origin tier in tests and single-process demos. Safe for concurrent
// use.
type Static struct {
	mu       sync.Mutex
	payloads map[string][]byte
	gets     uint64
}

// NewStatic returns an empty in-memory origin.
func NewStatic() *Static {
	return &Static{payloads: make(map[string][]byte)}
}

// Put seeds the payload of d. Static keeps payload itself, not a copy:
// payload bytes never change once handed over, as core.PublishItem
// relies on too.
func (s *Static) Put(d attr.Descriptor, payload []byte) {
	s.mu.Lock()
	s.payloads[d.Key()] = payload
	s.mu.Unlock()
}

// PutEntry does nothing: an origin serves payloads, and an entry
// without one is nothing to serve. It stays while the live-swarm
// benchmark still calls it, and goes once that call does.
func (s *Static) PutEntry(attr.Descriptor) {}

// Gets returns how many GetPayload calls hit this origin.
func (s *Static) Gets() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gets
}

// GetPayload returns a copy of the payload seeded for key.
func (s *Static) GetPayload(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	p, ok := s.payloads[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), p...), true
}

// HasPayload reports whether a payload was seeded for key.
func (s *Static) HasPayload(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.payloads[key]
	return ok
}

// Handler serves a Source over HTTP: GET and HEAD on /<url-escaped
// descriptor key>. Pair it with NewHTTP on the fetching side to turn
// any node's diskstore into an origin server.
func Handler(b Source) http.Handler {
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
