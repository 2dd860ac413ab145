package origin

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pds/internal/attr"
	"pds/internal/diskstore"
)

// A node's diskstore backend is a Source: Handler turns it into an
// origin server.
var _ Source = (*diskstore.Backend)(nil)

func chunkDesc(name string, chunk int) attr.Descriptor {
	return attr.NewDescriptor().
		Set(attr.AttrName, attr.String(name)).
		Set(attr.AttrChunkID, attr.Int(int64(chunk)))
}

func TestStaticBackend(t *testing.T) {
	s := NewStatic()
	d := chunkDesc("clip", 0)
	payload := []byte("chunk-zero")
	s.Put(d, payload)

	got, ok := s.GetPayload(d.Key())
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("GetPayload = %q, %v", got, ok)
	}
	// The backend must hand out copies, not its own buffer.
	got[0] = 'X'
	if again, _ := s.GetPayload(d.Key()); !bytes.Equal(again, payload) {
		t.Fatal("GetPayload returned a shared buffer")
	}
	if !s.HasPayload(d.Key()) {
		t.Fatal("HasPayload = false")
	}
	if _, ok := s.GetPayload("no-such-key"); ok {
		t.Fatal("phantom key served")
	}
	if s.Gets() != 3 {
		t.Fatalf("Gets = %d, want 3", s.Gets())
	}
}

// TestStaticKeepsWhatItIsGiven: Static stores the caller's bytes, not a
// copy of them, so its map holds the very slice that was Put.
func TestStaticKeepsWhatItIsGiven(t *testing.T) {
	s := NewStatic()
	d := chunkDesc("clip", 0)
	payload := []byte("chunk-zero")
	s.Put(d, payload)
	got := s.payloads[d.Key()]
	if len(got) != len(payload) || &got[0] != &payload[0] {
		t.Fatal("Static keeps a copy of the payload, not the slice that was Put")
	}
}

func TestHTTPOriginAgainstHandler(t *testing.T) {
	back := NewStatic()
	d := chunkDesc("clip", 1)
	payload := bytes.Repeat([]byte{7}, 4096)
	back.Put(d, payload)

	srv := httptest.NewServer(Handler(back))
	defer srv.Close()

	h := NewHTTP(srv.URL, time.Second)
	got, ok := h.GetPayload(d.Key())
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("GetPayload over HTTP: ok=%v len=%d", ok, len(got))
	}
	if !h.HasPayload(d.Key()) {
		t.Fatal("HasPayload over HTTP = false")
	}
	if _, ok := h.GetPayload("missing/key"); ok {
		t.Fatal("phantom key served over HTTP")
	}
	if h.HasPayload("missing/key") {
		t.Fatal("phantom HEAD succeeded")
	}
}

// TestHTTPOriginKeysWithPercent: a key is escaped once by NewHTTP and
// unescaped once by net/http, so a '%' byte in it survives the trip —
// whether the name holds one or a 37-byte name's uvarint length byte
// (0x25) does.
func TestHTTPOriginKeysWithPercent(t *testing.T) {
	names := []string{"clip", "100%", "x%41y", strings.Repeat("a", 37), strings.Repeat("%", 37)}
	back := NewStatic()
	for i, name := range names {
		back.Put(chunkDesc(name, 0), []byte{byte(i)})
	}
	srv := httptest.NewServer(Handler(back))
	defer srv.Close()
	h := NewHTTP(srv.URL, time.Second)
	for i, name := range names {
		key := chunkDesc(name, 0).Key()
		if got, ok := h.GetPayload(key); !ok || !bytes.Equal(got, []byte{byte(i)}) {
			t.Errorf("GetPayload(%q) = %v, %v; want [%d], true", name, got, ok, i)
		}
		if !h.HasPayload(key) {
			t.Errorf("HasPayload(%q) = false", name)
		}
	}
}

func TestHTTPOriginDown(t *testing.T) {
	srv := httptest.NewServer(Handler(NewStatic()))
	addr := srv.URL
	srv.Close()
	h := NewHTTP(addr, 200*time.Millisecond)
	if _, ok := h.GetPayload("k"); ok {
		t.Fatal("dead origin served a payload")
	}
	if h.HasPayload("k") {
		t.Fatal("dead origin answered HEAD")
	}
}
