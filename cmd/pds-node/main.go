// Command pds-node runs a real PDS peer over UDP, sharing files and
// notes with other pds-node instances on the same LAN (broadcast mode)
// or the same machine (loopback mode).
//
// Examples:
//
//	# share a file on the LAN and serve discovery
//	pds-node -port 9753 -share ./sunset.jpg -name sunset.jpg -stay 10m
//
//	# on another machine: see what exists, then fetch it
//	pds-node -port 9753 -discover
//	pds-node -port 9753 -fetch sunset.jpg -out ./sunset.jpg
//
//	# loopback demo: three terminals on one machine
//	pds-node -listen 127.0.0.1:9701 -peers 9701,9702,9703 -share go.mod -name go.mod -stay 5m
//	pds-node -listen 127.0.0.1:9702 -peers 9701,9702,9703 -discover
//	pds-node -listen 127.0.0.1:9703 -peers 9701,9702,9703 -fetch go.mod -out /tmp/got.mod
//
//	# persistent sharing: -data-dir keeps published data on disk, so a
//	# killed node comes back serving everything it had shared
//	pds-node -port 9753 -data-dir ./pds-data -share ./sunset.jpg -name sunset.jpg -stay 10m
//	pds-node -port 9753 -data-dir ./pds-data -stay 10m   # after restart
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pds"
	"pds/internal/origin"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pds-node:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pds-node", flag.ContinueOnError)
	port := fs.Int("port", 9753, "UDP broadcast port (LAN mode)")
	listen := fs.String("listen", "", "explicit listen address (loopback mode), e.g. 127.0.0.1:9701")
	peers := fs.String("peers", "", "comma-separated loopback peer ports (loopback mode)")
	transport := fs.String("transport", "udp", "transport plane: udp (broadcast/loopback) or tcp (supervised unicast faces)")
	tcpListen := fs.String("tcp-listen", ":9755", "TCP listen address for -transport tcp (empty = dial-only)")
	tcpPeers := fs.String("tcp-peers", "", "comma-separated TCP peer addresses for -transport tcp, e.g. 127.0.0.1:9755,127.0.0.1:9756")
	trackers := fs.String("trackers", "", "comma-separated pds-tracker addresses for edge-peer discovery, in priority order")
	originURL := fs.String("origin", "", "HTTP origin base URL: the retrieval tier of last resort")
	originListen := fs.String("origin-listen", "",
		"with -share: also serve the shared chunks over HTTP (origin protocol) on this address, e.g. 127.0.0.1:8080")
	share := fs.String("share", "", "path of a file to publish")
	name := fs.String("name", "", "name attribute for the shared file (default: the path)")
	namespace := fs.String("namespace", "files", "namespace attribute")
	discover := fs.Bool("discover", false, "discover nearby items and exit")
	fetch := fs.String("fetch", "", "retrieve the item with this name")
	out := fs.String("out", "", "output path for -fetch (default: stdout byte count only)")
	stay := fs.Duration("stay", time.Minute, "how long to keep serving after -share")
	timeout := fs.Duration("timeout", 2*time.Minute, "discovery/retrieval budget")
	id := fs.Uint("id", 0, "node id (0 = random)")
	dataDir := fs.String("data-dir", "",
		"persist owned data in a crash-safe store under this directory; a restarted node serves everything it had published")
	persistCache := fs.Bool("persist-cache", false,
		"with -data-dir: keep cached third-party payloads across restarts too")
	debugAddr := fs.String("debug-addr", "",
		"serve expvar, pprof and a /debug/trace recent-events dump on this HTTP address, e.g. 127.0.0.1:6060")
	routing := fs.String("routing", "",
		"routing strategy: "+strings.Join(pds.RoutingStrategies(), " | ")+" (empty = default)")
	caching := fs.String("caching", "",
		"caching strategy: "+strings.Join(pds.CachingStrategies(), " | ")+" (empty = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// SIGINT/SIGTERM cancels whatever the node is doing — including the
	// -stay serving window — so the UDP socket always closes cleanly.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var (
		trans    pds.Transport
		facePeer []string
		err      error
	)
	switch *transport {
	case "tcp":
		for _, a := range strings.Split(*tcpPeers, ",") {
			if a = strings.TrimSpace(a); a != "" {
				facePeer = append(facePeer, a)
			}
		}
		trans, err = pds.NewFaceTransport(pds.DefaultFaceConfig(*tcpListen), facePeer...)
	case "udp":
		if *listen != "" || *peers != "" {
			ownPort, peerPorts, perr := parseLoopback(*listen, *peers)
			if perr != nil {
				return perr
			}
			trans, err = pds.NewLoopbackTransport(ownPort, peerPorts)
		} else {
			trans, err = pds.NewUDPTransport(*port)
		}
	default:
		return fmt.Errorf("unknown -transport %q (udp or tcp)", *transport)
	}
	if err != nil {
		return err
	}

	var opts []pds.NodeOption
	if *id != 0 {
		opts = append(opts, pds.WithNodeID(pds.NodeID(*id)))
	}
	if *debugAddr != "" {
		opts = append(opts, pds.WithTracing(0))
	}
	if *dataDir != "" {
		opts = append(opts, pds.WithDataDir(*dataDir))
		if *persistCache {
			opts = append(opts, pds.WithPersistentCache())
		}
	} else if *persistCache {
		return fmt.Errorf("-persist-cache requires -data-dir")
	}
	if *trackers != "" {
		var addrs []string
		for _, a := range strings.Split(*trackers, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		opts = append(opts, pds.WithTrackers(addrs...))
	}
	if *originURL != "" {
		opts = append(opts, pds.WithOrigin(pds.NewHTTPOrigin(*originURL, 0)))
	}
	if *routing != "" || *caching != "" {
		opts = append(opts, pds.WithStrategies(*routing, *caching))
	}
	node, err := pds.NewNode(trans, opts...)
	if err != nil {
		return err
	}
	defer node.Close()
	fmt.Printf("node %d up\n", node.ID())
	if m, ok := trans.(*pds.FaceMesh); ok {
		fmt.Printf("face mesh on %v, %d configured peers\n", m.ListenAddr(), len(facePeer))
		if len(facePeer) > 0 && !m.WaitReady(1, 5*time.Second) {
			fmt.Println("warning: no face came up within 5s; supervisors keep retrying")
		}
	}
	if st, ok := node.DiskStats(); ok {
		fmt.Printf("data dir %s: %d records recovered in %v (%d skipped)\n",
			*dataDir, st.LastRecovery.Records, st.LastRecovery.Duration.Round(time.Millisecond),
			st.LastRecovery.SkippedRecords)
	}

	if *debugAddr != "" {
		stop := debugServer(*debugAddr, node, trans)
		defer stop()
		fmt.Printf("debug endpoint on http://%s/debug/\n", *debugAddr)
	}

	ctx, cancel := context.WithTimeout(sigCtx, *timeout)
	defer cancel()

	if *share != "" {
		payload, err := os.ReadFile(*share)
		if err != nil {
			return err
		}
		label := *name
		if label == "" {
			label = *share
		}
		desc := pds.NewDescriptor().
			Set(pds.AttrNamespace, pds.String(*namespace)).
			Set(pds.AttrDataType, pds.String("file")).
			Set(pds.AttrName, pds.String(label)).
			Set(pds.AttrTime, pds.Time(time.Now()))
		desc = node.PublishItem(desc, payload, pds.DefaultChunkSize)
		fmt.Printf("sharing %q: %d bytes, %d chunks; serving for %v\n",
			label, len(payload), desc.TotalChunks(), *stay)
		if *originListen != "" {
			// Serve the same chunks over the origin protocol, so peers
			// configured with -origin can fall back here when the P2P
			// swarm cannot produce them.
			st := origin.NewStatic()
			for c, off := 0, 0; c < desc.TotalChunks(); c++ {
				end := off + pds.DefaultChunkSize
				if end > len(payload) {
					end = len(payload)
				}
				st.Put(desc.WithChunk(c), payload[off:end])
				off = end
			}
			osrv := &http.Server{Addr: *originListen, Handler: origin.Handler(st)}
			var owg sync.WaitGroup
			owg.Add(1)
			go func() {
				defer owg.Done()
				if err := osrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
					fmt.Fprintln(os.Stderr, "pds-node: origin endpoint:", err)
				}
			}()
			defer owg.Wait()
			defer osrv.Close()
			fmt.Printf("origin serving %d chunks on http://%s/\n", desc.TotalChunks(), *originListen)
		}
		select {
		case <-time.After(*stay):
		case <-sigCtx.Done():
			fmt.Println("interrupted; shutting down")
		}
		return nil
	}

	if *discover {
		entries, err := node.Discover(ctx, pds.NewQuery(
			pds.Exists(pds.AttrName), pds.NotExists(pds.AttrChunkID)))
		if err != nil {
			return err
		}
		fmt.Printf("%d items nearby:\n", len(entries))
		for _, e := range entries {
			fmt.Printf("  %s/%s %q (%d chunks)\n",
				e.Namespace(), e.DataType(), e.Name(), e.TotalChunks())
		}
		return nil
	}

	if *fetch != "" {
		entries, err := node.Discover(ctx, pds.NewQuery(
			pds.Eq(pds.AttrName, pds.String(*fetch)),
			pds.NotExists(pds.AttrChunkID)))
		if err != nil {
			return err
		}
		if len(entries) == 0 {
			return fmt.Errorf("no item named %q found nearby", *fetch)
		}
		var data []byte
		if *trackers != "" || *originURL != "" {
			// Deployment plane configured: run the tiered ladder —
			// local → P2P → tracker-learned edge peers → origin.
			res, terr := node.RetrieveTiered(ctx, entries[0])
			if terr != nil {
				return terr
			}
			fmt.Printf("tiers: %s\n", res.Counters.String())
			if !res.Complete {
				return fmt.Errorf("retrieve %q: incomplete, missing chunks %v", *fetch, res.Missing)
			}
			data, _ = res.Assemble()
		} else if data, err = node.Retrieve(ctx, entries[0]); err != nil {
			return err
		}
		if *out != "" {
			if err := os.WriteFile(*out, data, 0o644); err != nil {
				return err
			}
			fmt.Printf("retrieved %q: %d bytes -> %s\n", *fetch, len(data), *out)
		} else {
			fmt.Printf("retrieved %q: %d bytes\n", *fetch, len(data))
		}
		return nil
	}

	if *dataDir != "" {
		// Restart mode: no new action, but a data dir full of previously
		// published items — serve them, exactly as before the restart.
		if st, ok := node.DiskStats(); ok && st.LiveRecords > 0 {
			fmt.Printf("serving %d restored records for %v\n", st.LiveRecords, *stay)
			select {
			case <-time.After(*stay):
			case <-sigCtx.Done():
				fmt.Println("interrupted; shutting down")
			}
			return nil
		}
	}

	fmt.Println("nothing to do: pass -share, -discover or -fetch")
	return nil
}

// debugServer starts the live-telemetry HTTP endpoint: expvar (with the
// node's protocol counters published under "pds_stats", the strategy
// plane's names and counters under "pds_strategy", and on a face mesh the
// mesh's counters — writes, queue drops, overhear drops — under
// "pds_face"), the pprof profiles, and /debug/trace streaming the
// tracer's buffered events as JSONL — the same format pds-trace analyzes.
// The returned stop func closes the listener and joins the serve
// goroutine.
func debugServer(addr string, node *pds.Node, trans pds.Transport) func() {
	expvar.Publish("pds_stats", expvar.Func(func() any { return node.Stats() }))
	expvar.Publish("pds_strategy", expvar.Func(func() any { return node.StrategyStats() }))
	if m, ok := trans.(*pds.FaceMesh); ok {
		expvar.Publish("pds_face", expvar.Func(func() any { return m.Stats() }))
	}
	if _, ok := node.DiskStats(); ok {
		expvar.Publish("pds_diskstore", expvar.Func(func() any {
			st, _ := node.DiskStats()
			return st
		}))
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := node.Tracer().WriteJSONL(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	srv := &http.Server{Addr: addr, Handler: mux}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "pds-node: debug endpoint:", err)
		}
	}()
	return func() {
		srv.Close()
		wg.Wait()
	}
}

func parseLoopback(listen, peers string) (int, []int, error) {
	ownPort := 0
	if listen != "" {
		idx := strings.LastIndex(listen, ":")
		if idx < 0 {
			return 0, nil, fmt.Errorf("bad -listen %q", listen)
		}
		p, err := strconv.Atoi(listen[idx+1:])
		if err != nil {
			return 0, nil, fmt.Errorf("bad -listen port: %w", err)
		}
		ownPort = p
	}
	var peerPorts []int
	for _, s := range strings.Split(peers, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		p, err := strconv.Atoi(s)
		if err != nil {
			return 0, nil, fmt.Errorf("bad peer port %q: %w", s, err)
		}
		peerPorts = append(peerPorts, p)
	}
	if ownPort == 0 && len(peerPorts) > 0 {
		ownPort = peerPorts[0]
	}
	if ownPort == 0 {
		return 0, nil, fmt.Errorf("loopback mode needs -listen or -peers")
	}
	return ownPort, peerPorts, nil
}
