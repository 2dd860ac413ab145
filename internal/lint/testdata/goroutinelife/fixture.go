// Package fixture exercises the goroutinelife analyzer: unsupervised
// goroutines are flagged, the three sanctioned supervision patterns
// stay silent.
package fixture

import (
	"context"
	"net/http"
	"sync"
)

type server struct {
	wg   sync.WaitGroup
	done chan struct{}
}

func fire() {}

// Unsupervised: nothing joins these on shutdown.
func leaky(s *server) {
	go fire()      // want "unsupervised goroutine"
	go func() {}() // want "unsupervised goroutine"
}

// pds-node started its origin server and closed it on the way out, but
// nothing waited for ListenAndServe to return.
//
// history: 86e82c5 cmd/pds-node/main.go:208
func serveOrigin(addr string) {
	osrv := &http.Server{Addr: addr}
	go osrv.ListenAndServe() // want "unsupervised goroutine"
	defer osrv.Close()
}

// Add after the go statement races with Wait; still flagged.
func addAfter(s *server) {
	go s.serveLoop() // want "unsupervised goroutine"
	s.wg.Add(1)
}

func (s *server) serveLoop() {
	defer s.wg.Done()
}

// WaitGroup pattern, function literal form.
func supervisedLit(s *server) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		fire()
	}()
}

// WaitGroup pattern, method form (one call level deep).
func supervisedMethod(s *server) {
	s.wg.Add(1)
	go s.serveLoop()
}

// Context cancellation pattern.
func supervisedCtx(ctx context.Context) {
	go func() {
		<-ctx.Done()
	}()
}

// Done-channel pattern.
func supervisedChan(s *server) {
	go func() {
		for {
			select {
			case <-s.done:
				return
			default:
				fire()
			}
		}
	}()
}

// The audited escape hatch for fire-and-forget work.
func audited() {
	//lint:allow goroutinelife detached one-shot telemetry flush, bounded by the process
	go fire() // want "unsupervised goroutine"
}
