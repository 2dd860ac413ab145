package main

import (
	"expvar"
	"strings"
	"testing"

	"pds"
)

func TestParseLoopback(t *testing.T) {
	tests := []struct {
		name      string
		listen    string
		peers     string
		wantOwn   int
		wantPeers int
		wantErr   bool
	}{
		{"explicit listen and peers", "127.0.0.1:9701", "9701,9702,9703", 9701, 3, false},
		{"peers only: first is own", "", "9701,9702", 9701, 2, false},
		{"listen only", "127.0.0.1:9750", "", 9750, 0, false},
		{"spaces tolerated", "", " 9701 , 9702 ", 9701, 2, false},
		{"bad listen", "nocolon", "", 0, 0, true},
		{"bad listen port", "127.0.0.1:xx", "", 0, 0, true},
		{"bad peer port", "", "9701,abc", 0, 0, true},
		{"nothing", "", "", 0, 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			own, peers, err := parseLoopback(tt.listen, tt.peers)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tt.wantErr)
			}
			if err != nil {
				return
			}
			if own != tt.wantOwn || len(peers) != tt.wantPeers {
				t.Fatalf("own=%d peers=%d, want %d/%d", own, len(peers), tt.wantOwn, tt.wantPeers)
			}
		})
	}
}

// TestDebugServerPublishesFaceStats: on a face mesh the debug endpoint
// publishes the mesh's counters next to the protocol's.
func TestDebugServerPublishesFaceStats(t *testing.T) {
	m, err := pds.NewFaceTransport(pds.DefaultFaceConfig("127.0.0.1:0"))
	if err != nil {
		t.Skipf("cannot listen on loopback TCP: %v", err)
	}
	node, err := pds.NewNode(m)
	if err != nil {
		m.Close()
		t.Fatal(err)
	}
	defer node.Close()
	stop := debugServer("127.0.0.1:0", node, m)
	defer stop()
	for _, name := range []string{"pds_stats", "pds_face"} {
		if expvar.Get(name) == nil {
			t.Fatalf("expvar %q not published", name)
		}
	}
	for _, field := range []string{`"Writes"`, `"OutboxDrops"`, `"OverhearDrops"`} {
		if s := expvar.Get("pds_face").String(); !strings.Contains(s, field) {
			t.Errorf("pds_face = %s, lacks %s", s, field)
		}
	}
}

func TestRunRejectsUnknownFlagsAndModes(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}
