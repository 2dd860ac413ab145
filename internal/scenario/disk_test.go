package scenario

import (
	"testing"
	"time"

	"pds/internal/wire"
)

// findChunkHolder returns a non-consumer peer holding at least one
// chunk of the item, with the chunk ids it holds.
func findChunkHolder(d *Deployment, itemKey string, consumer wire.NodeID) (*Peer, []int) {
	for _, id := range d.sortedPeerIDs() {
		if id == consumer {
			continue
		}
		p := d.Peers[id]
		if held := p.Node.Store().ChunksHeld(itemKey); len(held) > 0 {
			return p, held
		}
	}
	return nil, nil
}

// With a data dir, a crashed peer's owned data comes back through the
// diskstore recovery scan — not from the scenario's seeding config, and
// not from RAM (the crash empties it).
func TestRestartRecoversOwnedFromDisk(t *testing.T) {
	d := Grid(3, 3, GridSpacing, Options{Seed: 5, DataDir: t.TempDir()})
	defer d.Close()
	consumer := CenterID(3, 3)
	item := ItemDescriptor("clip", 2*DefaultChunkSize, DefaultChunkSize)
	d.DistributeChunks(item, DefaultChunkSize, 2, consumer)
	itemKey := item.Key()

	p, held := findChunkHolder(d, itemKey, consumer)
	if p == nil {
		t.Fatal("no peer holds any chunk")
	}
	want := map[int][]byte{}
	for _, c := range held {
		payload, ok := p.Node.Store().ChunkPayload(itemKey, c)
		if !ok {
			t.Fatalf("holder misses chunk %d pre-crash", c)
		}
		want[c] = append([]byte(nil), payload...)
	}

	d.Crash(p.ID)
	// The crash must empty RAM: owned data now lives only on disk.
	if got := p.Node.Store().ChunksHeld(itemKey); len(got) != 0 {
		t.Fatalf("crashed node still holds %v in RAM", got)
	}

	d.Restart(p.ID)
	if p.Disk == nil {
		t.Fatal("restart did not reopen the diskstore")
	}
	for c, wantPayload := range want {
		got, ok := p.Node.Store().ChunkPayload(itemKey, c)
		if !ok {
			t.Fatalf("chunk %d not recovered after restart", c)
		}
		if len(got) != len(wantPayload) {
			t.Fatalf("chunk %d recovered with %d bytes, want %d", c, len(got), len(wantPayload))
		}
		for i := range got {
			if got[i] != wantPayload[i] {
				t.Fatalf("chunk %d differs at offset %d after recovery", c, i)
			}
		}
	}
	rec := p.Disk.Store().Stats().LastRecovery
	if rec.Records == 0 {
		t.Fatal("recovery scan replayed no records")
	}
}

// A retrieval against a disk-backed deployment completes even when a
// producer crash/restart cycle happens mid-transfer: the restarted
// producer serves its recovered chunks.
func TestDiskBackedRetrievalSurvivesCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	d := Grid(5, 5, GridSpacing, Options{Seed: 11, DataDir: t.TempDir()})
	defer d.Close()
	consumer := CenterID(5, 5)
	d.Pin(consumer)
	item := ItemDescriptor("movie", 4*DefaultChunkSize, DefaultChunkSize)
	d.DistributeChunks(item, DefaultChunkSize, 2, consumer)

	p, _ := findChunkHolder(d, item.Key(), consumer)
	if p == nil {
		t.Fatal("no chunk holder")
	}
	d.Eng.Schedule(2*time.Second, func() { d.Crash(p.ID) })
	d.Eng.Schedule(20*time.Second, func() { d.Restart(p.ID) })

	results, done := d.Retrieve([]wire.NodeID{consumer}, item, false, 900*time.Second)

	res := results[0]
	if !done {
		t.Fatal("retrieval hung")
	}
	if !res.Complete {
		t.Fatalf("retrieval incomplete: missing %v", res.Missing)
	}
	for c, payload := range res.Chunks {
		for i := 0; i < len(payload); i += 4093 {
			if payload[i] != byte(c+i) {
				t.Fatalf("chunk %d corrupt at offset %d", c, i)
			}
		}
	}
}

// The disk chaos scenario: the hub's owned chunks must come back from
// its reopened diskstore and the retrieval must complete, with the
// report's disk counters recording the recovery.
func TestChaosDiskCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	rep := DiskCrashRecovery(42, 2<<20, t.TempDir())
	t.Log(rep.Row)
	if !rep.Done {
		t.Fatal("retrieval hung past its deadline")
	}
	if rep.Recall < 0.99 {
		t.Fatalf("recall %.3f with redundancy 2 and a single transient crash", rep.Recall)
	}
	if rep.Faults.Crashes < 1 {
		t.Fatal("hub crash never fired")
	}
	if rep.Sample.Disk == nil {
		t.Fatal("disk-backed run reported no disk counters")
	}
	if rep.Sample.Disk.RecoveredRecords == 0 {
		t.Fatal("no records replayed by the restarted node's recovery scan")
	}
	if rep.Sample.Disk.BytesWritten == 0 {
		t.Fatal("no bytes ever written to the persistent stores")
	}
}

// Disk-backed runs must stay deterministic: same seed, same rows, even
// though the data directory differs between the two runs.
func TestDiskBackedDeterminism(t *testing.T) {
	run := func(dir string) (float64, time.Duration) {
		d := Grid(3, 3, GridSpacing, Options{Seed: 21, DataDir: dir})
		defer d.Close()
		consumer := CenterID(3, 3)
		item := ItemDescriptor("det", 2*DefaultChunkSize, DefaultChunkSize)
		d.DistributeChunks(item, DefaultChunkSize, 2, consumer)
		results, done := d.Retrieve([]wire.NodeID{consumer}, item, false, 900*time.Second)
		res := results[0]
		if !done || !res.Complete {
			t.Fatalf("retrieval failed: done=%v complete=%v", done, res.Complete)
		}
		return float64(len(res.Chunks)) / float64(item.TotalChunks()), d.Eng.Now()
	}
	r1, t1 := run(t.TempDir())
	r2, t2 := run(t.TempDir())
	if r1 != r2 || t1 != t2 {
		t.Fatalf("same seed diverged: recall %v vs %v, clock %v vs %v", r1, r2, t1, t2)
	}
}
