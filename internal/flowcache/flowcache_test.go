package flowcache

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/rule"
)

func pkt(i uint32) rule.Packet {
	return rule.Packet{
		SrcIP:   i * 2654435761,
		DstIP:   ^i,
		SrcPort: uint16(i),
		DstPort: uint16(i >> 3),
		Proto:   uint8(i),
	}
}

func TestLookupInsertRoundTrip(t *testing.T) {
	c := New(1024)
	p := pkt(7)
	if _, ok := c.Lookup(p, 3); ok {
		t.Fatal("hit on empty cache")
	}
	c.Insert(p, 3, 42)
	rid, ok := c.Lookup(p, 3)
	if !ok || rid != 42 {
		t.Fatalf("Lookup = (%d,%v), want (42,true)", rid, ok)
	}
	// A different 5-tuple must not alias.
	if _, ok := c.Lookup(pkt(8), 3); ok {
		t.Fatal("hit for a flow never inserted")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Inserts != 1 || s.Occupied != 1 {
		t.Fatalf("stats %+v", s)
	}
}

// TestStaleEpochFallthrough is the invalidation protocol: an entry
// stamped at an older epoch must miss, be dropped (not revalidated), and
// be replaced by the repopulating insert at the new epoch.
func TestStaleEpochFallthrough(t *testing.T) {
	c := New(1024)
	p := pkt(1)
	c.Insert(p, 5, 10)
	if rid, ok := c.Lookup(p, 5); !ok || rid != 10 {
		t.Fatalf("same-epoch lookup = (%d,%v)", rid, ok)
	}
	// Epoch advanced (an update happened): the entry is now stale.
	if _, ok := c.Lookup(p, 6); ok {
		t.Fatal("stale-epoch lookup hit")
	}
	s := c.Stats()
	if s.StaleEvictions != 1 {
		t.Fatalf("StaleEvictions = %d, want 1", s.StaleEvictions)
	}
	if s.Occupied != 0 {
		t.Fatalf("stale entry not dropped: occupied = %d", s.Occupied)
	}
	// Older-epoch lookups must not resurrect it either (epochs only
	// advance; an exact-epoch match is required).
	c.Insert(p, 7, 11)
	if _, ok := c.Lookup(p, 6); ok {
		t.Fatal("entry from epoch 7 served to an epoch-6 reader")
	}
	if rid, ok := c.Lookup(p, 7); !ok || rid != 11 {
		t.Fatalf("repopulated lookup = (%d,%v)", rid, ok)
	}
}

// TestInsertRefreshesStaleAndDuplicate: inserting the same flow again
// (new epoch or new answer) overwrites in place — occupancy must not
// grow, and the newest answer wins.
func TestInsertRefreshes(t *testing.T) {
	c := New(1024)
	p := pkt(2)
	c.Insert(p, 1, 5)
	c.Insert(p, 2, 6)
	c.Insert(p, 2, 7)
	if got := c.Stats().Occupied; got != 1 {
		t.Fatalf("occupied = %d after refreshing one flow", got)
	}
	if rid, ok := c.Lookup(p, 2); !ok || rid != 7 {
		t.Fatalf("Lookup = (%d,%v), want (7,true)", rid, ok)
	}
}

// TestSetEviction fills the cache far past capacity: occupancy must stay
// bounded by the fixed capacity, capacity evictions must be counted, and
// recently inserted flows must still be retrievable.
func TestSetEviction(t *testing.T) {
	c := New(64) // tiny: single shard, 16 sets x 4 ways
	capacity := c.Stats().Capacity
	n := capacity * 8
	for i := 0; i < n; i++ {
		c.Insert(pkt(uint32(i)), 1, int32(i))
	}
	s := c.Stats()
	if s.Occupied > capacity {
		t.Fatalf("occupied %d exceeds capacity %d", s.Occupied, capacity)
	}
	if s.Evictions == 0 {
		t.Fatal("no capacity evictions after 8x oversubscription")
	}
	if s.Inserts != uint64(n) {
		t.Fatalf("inserts = %d, want %d", s.Inserts, n)
	}
	// The last-inserted flow of every set survived (round-robin victims
	// never displace the slot just written).
	if rid, ok := c.Lookup(pkt(uint32(n-1)), 1); !ok || rid != int32(n-1) {
		t.Fatalf("most recent flow evicted: (%d,%v)", rid, ok)
	}
}

func TestZeroAllocHotPath(t *testing.T) {
	c := New(4096)
	p := pkt(9)
	c.Insert(p, 1, 3)
	if a := testing.AllocsPerRun(1000, func() {
		c.Lookup(p, 1)
	}); a != 0 {
		t.Errorf("Lookup allocates %.1f/op", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		c.Insert(p, 1, 3)
	}); a != 0 {
		t.Errorf("Insert allocates %.1f/op", a)
	}
}

func TestSizingDefaultsAndRounding(t *testing.T) {
	if got := New(0).Stats().Capacity; got < DefaultEntries {
		t.Errorf("New(0).Stats().Capacity = %d, want >= %d", got, DefaultEntries)
	}
	if got := New(1000).Stats().Capacity; got < 1000 {
		t.Errorf("New(1000).Stats().Capacity = %d, want >= 1000", got)
	}
	if got := New(1).Stats().Capacity; got < setWays {
		t.Errorf("New(1).Stats().Capacity = %d, want >= %d", got, setWays)
	}
}

// TestHitRateOnSkewedFlows: under Zipf-ish repetition of a flow
// population that fits the cache, the steady-state hit rate must be high.
func TestHitRateOnSkewedFlows(t *testing.T) {
	c := New(4096)
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.2, 8, 1023)
	for i := 0; i < 50000; i++ {
		p := pkt(uint32(zipf.Uint64()))
		if _, ok := c.Lookup(p, 1); !ok {
			c.Insert(p, 1, 1)
		}
	}
	if hr := c.Stats().HitRate(); hr < 0.90 {
		t.Errorf("hit rate %.3f on 1024 Zipf flows in a 4096-entry cache", hr)
	}
}

// TestConcurrentMixed hammers all shards from several goroutines with
// epoch advances mixed in; run under -race this pins the shard locking.
func TestConcurrentMixed(t *testing.T) {
	c := New(2048)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 20000; i++ {
				p := pkt(uint32(rng.Intn(4096)))
				epoch := uint64(i / 5000) // advances mid-run
				if rid, ok := c.Lookup(p, epoch); ok {
					if rid != int32(p.SrcPort) {
						t.Errorf("goroutine %d: flow %v cached %d, want %d", g, p, rid, p.SrcPort)
						return
					}
				} else {
					c.Insert(p, epoch, int32(p.SrcPort))
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits == 0 || s.StaleEvictions == 0 {
		t.Errorf("concurrent run produced no hits or no stale evictions: %+v", s)
	}
}

// TestInsertAccountingWithStaleNeighbor is the regression test for a
// bookkeeping bug: choosing (but then abandoning) a stale way while the
// same flow is found later in the set must not touch the counters. A
// single-set cache forces the collision.
func TestInsertAccountingWithStaleNeighbor(t *testing.T) {
	c := New(1) // one 4-way set: every flow collides
	a, b := pkt(1), pkt(2)
	c.Insert(a, 1, 10)
	c.Insert(b, 1, 20)
	// Epoch advances; refreshing B scans past the now-stale A first.
	c.Insert(b, 2, 21)
	s := c.Stats()
	if s.Occupied != 2 {
		t.Fatalf("occupied = %d after refresh, want 2 (A still resident)", s.Occupied)
	}
	if s.StaleEvictions != 0 {
		t.Fatalf("refresh charged %d stale evictions; A was never dropped", s.StaleEvictions)
	}
	// Touching A at the new epoch drops it exactly once.
	if _, ok := c.Lookup(a, 2); ok {
		t.Fatal("stale A hit")
	}
	s = c.Stats()
	if s.Occupied != 1 || s.StaleEvictions != 1 {
		t.Fatalf("after dropping A: occupied=%d stale=%d, want 1/1", s.Occupied, s.StaleEvictions)
	}
	if rid, ok := c.Lookup(b, 2); !ok || rid != 21 {
		t.Fatalf("B = (%d,%v), want (21,true)", rid, ok)
	}
}
