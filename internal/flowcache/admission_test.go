package flowcache

import (
	"runtime"
	"testing"

	"repro/internal/rule"
)

// The admission policy (set dueling, see the leaderStride constants),
// driven through the same three calls the engine's cached range makes.

const admitBatch = 512

// window is the normal-mode admission window in probed lookups.
func window(c *Cache) int { return windowPerCap * c.Stats().Capacity }

// drive is engine.classifyCachedRange with the engine replaced by a pure
// function of the flow: LookupBatch, the miss protocol (re-probe, insert)
// on NoEntry, nothing on NotProbed, one NoteLookups. It checks every
// cached answer and returns the mode flips it caused.
func drive(t *testing.T, c *Cache, pkts []rule.Packet, epoch uint64) (flips int) {
	t.Helper()
	out := make([]int32, admitBatch)
	for ; len(pkts) > 0; pkts = pkts[min(admitBatch, len(pkts)):] {
		b := pkts[:min(admitBatch, len(pkts))]
		hits := uint64(c.LookupBatch(b, epoch, out))
		var misses, bypassed uint64
		for i, p := range b {
			switch out[i] {
			case NotProbed:
				bypassed++
				continue
			case NoEntry:
				rid, ok := c.Probe(p, epoch)
				if !ok {
					c.Insert(p, epoch, int32(p.SrcPort))
					misses++
					continue
				}
				out[i] = rid
				hits++
			}
			if want := int32(p.SrcPort); out[i] != want {
				t.Fatalf("flow %v answered %d from the cache, want %d", p, out[i], want)
			}
		}
		before := c.Stats().Bypassing
		flipped, bypassing, winHits, winProbed := c.NoteLookups(hits, misses, bypassed)
		if flipped {
			flips++
			if bypassing == before || bypassing != c.Stats().Bypassing {
				t.Fatalf("flip reported mode %v, was %v, is %v", bypassing, before, c.Stats().Bypassing)
			}
			if winProbed == 0 || winHits > winProbed {
				t.Fatalf("flip decided on a window of %d hits in %d probed lookups", winHits, winProbed)
			}
		}
	}
	return flips
}

// flows is n packets cycling through nFlows distinct 5-tuples with no
// trains: the worst case for an invalidation wave, one miss per flow
// back to back.
func flows(n, nFlows int) []rule.Packet {
	out := make([]rule.Packet, n)
	for i := range out {
		out[i] = pkt(uint32(i % nFlows))
	}
	return out
}

// scatter is n distinct 5-tuples, none of which flows() produces.
func scatter(n int, salt uint32) []rule.Packet {
	out := make([]rule.Packet, n)
	for i := range out {
		out[i] = pkt(1<<24 + salt<<20 + uint32(i))
	}
	return out
}

func checkConservation(t *testing.T, c *Cache, presented uint64) Stats {
	t.Helper()
	s := c.Stats()
	if s.Hits+s.Misses+s.Bypassed != presented {
		t.Fatalf("hits %d + misses %d + bypassed %d != %d packets presented", s.Hits, s.Misses, s.Bypassed, presented)
	}
	if s.Inserts != s.Misses {
		t.Fatalf("inserts %d != misses %d", s.Inserts, s.Misses)
	}
	return s
}

// TestAdmissionDuel pins both reaction times. Scatter traffic (hit ratio
// 0) must enter bypass when the first window closes: window = 4 ×
// capacity probed lookups, every lookup probed in normal mode, so after
// exactly window packets (rounded up to a batch). A returning flow
// population must leave it within two bypass windows of leader probes —
// the one open at the transition, which scatter misses may have
// polluted, and one clean one. A bypass window is window/32 leader
// probes, i.e. about window packets when 1/32 of the traffic maps to
// leader sets; the test allows three.
func TestAdmissionDuel(t *testing.T) {
	c := New(4096)
	window := window(c)
	var presented uint64
	step := func(pkts []rule.Packet) int {
		presented += uint64(len(pkts))
		return drive(t, c, pkts, 1)
	}

	if flips := step(scatter(window-admitBatch, 0)); flips != 0 || c.Stats().Bypassing {
		t.Fatalf("bypass entered before a full window of lookups (%d flips)", flips)
	}
	if flips := step(scatter(admitBatch, 1)); flips != 1 || !c.Stats().Bypassing {
		t.Fatalf("scatter traffic did not enter bypass within one window = %d packets", window)
	}
	s := checkConservation(t, c, presented)
	if s.Bypassed != 0 {
		t.Fatalf("%d packets bypassed before the mode flipped", s.Bypassed)
	}

	// In bypass mode followers touch nothing: only the leaders' share of
	// further scatter is probed and inserted.
	step(scatter(window, 2))
	s2 := checkConservation(t, c, presented)
	probed := s2.Hits + s2.Misses - s.Hits - s.Misses
	if probed == 0 || probed > uint64(window)/leaderStride*2 {
		t.Fatalf("bypass mode probed %d of %d packets, want about 1/%d", probed, window, leaderStride)
	}
	if !s2.Bypassing {
		t.Fatal("scatter traffic left bypass mode")
	}

	returning, back := flows(3*window, 2048), 0
	for ; c.Stats().Bypassing; back += admitBatch {
		if back == len(returning) {
			t.Fatalf("returning flows did not leave bypass within %d packets", back)
		}
		step(returning[back : back+admitBatch])
	}
	t.Logf("window %d: bypass after %d scatter packets, normal again after %d flow packets", window, window, back)
	s3 := checkConservation(t, c, presented)

	// Followers resume with whatever they held: the flows hit again.
	step(flows(4*2048, 2048))
	step(flows(4*2048, 2048))
	s4 := checkConservation(t, c, presented)
	if s4.Bypassing || s4.Bypassed != s3.Bypassed {
		t.Fatalf("normal mode bypassed packets: %+v", s4)
	}
	if s4.Hits-s3.Hits < 6*2048 {
		t.Fatalf("only %d hits in 8 rounds over 2048 resident flows", s4.Hits-s3.Hits)
	}
}

// TestAdmissionAllLeaders: a cache with fewer than leaderStride sets has
// no followers, so it never bypasses whatever the traffic.
func TestAdmissionAllLeaders(t *testing.T) {
	c := New(leaderStride / 2 * setWays)
	if len(c.sets) >= leaderStride {
		t.Fatalf("%d sets, want fewer than %d", len(c.sets), leaderStride)
	}
	n := 8 * window(c)
	if flips := drive(t, c, scatter(n, 0), 1); flips != 0 {
		t.Fatalf("an all-leader cache flipped mode %d times", flips)
	}
	if s := checkConservation(t, c, uint64(n)); s.Bypassing || s.Bypassed != 0 {
		t.Fatalf("an all-leader cache bypassed: %+v", s)
	}
}

// TestAdmissionSurvivesInvalidationWave is the regression the window
// length prevents: an epoch bump makes every entry stale at once, so a
// resident flow population misses once per flow back to back — a run far
// longer than a batch. That burst is at most capacity misses, a quarter
// of a window, and must not be read as traffic without locality.
func TestAdmissionSurvivesInvalidationWave(t *testing.T) {
	c := New(4096)
	const nFlows = 2048
	var presented uint64
	for epoch := uint64(1); epoch <= 6; epoch++ {
		// Eight rounds per epoch: the first is the wave (every lookup a
		// miss, four batches in a row with hit ratio 0).
		pkts := flows(8*nFlows, nFlows)
		presented += uint64(len(pkts))
		if flips := drive(t, c, pkts, epoch); flips != 0 {
			t.Fatalf("epoch %d: the invalidation wave flipped the admission mode", epoch)
		}
	}
	s := checkConservation(t, c, presented)
	if s.Bypassing || s.Bypassed != 0 {
		t.Fatalf("flow workload bypassed after epoch bumps: %+v", s)
	}
	if s.StaleEvictions < 5*nFlows*9/10 {
		t.Fatalf("only %d stale evictions: the waves did not happen", s.StaleEvictions)
	}
}

func TestLookupBatchZeroAllocInBypass(t *testing.T) {
	c := New(4096)
	drive(t, c, scatter(window(c)+admitBatch, 0), 1)
	if !c.Stats().Bypassing {
		t.Fatal("not in bypass mode")
	}
	pkts, out := scatter(admitBatch, 1), make([]int32, admitBatch)
	if a := testing.AllocsPerRun(100, func() {
		c.LookupBatch(pkts, 1, out)
	}); a != 0 {
		t.Errorf("LookupBatch allocates %.1f/op in bypass mode", a)
	}
}

// TestCacheZeroAllocs is the cache's exact allocation gate. One pass
// drives every branch of Insert, Probe and LookupBatch: fresh flows into
// empty and stale ways and, at twice the capacity, through evictions;
// refreshes; same-epoch hits, a lagging reader and a stale probe after
// an epoch bump; and LookupBatch in both admission modes. A pass's count
// is the least of three runtime.ReadMemStats deltas, so an allocation
// by another goroutine cannot fail it, while one in the cache shows in
// all three.
func TestCacheZeroAllocs(t *testing.T) {
	c := New(4096)
	flows := scatter(2*c.Stats().Capacity, 0)
	recent := flows[len(flows)-admitBatch:]
	win := uint64(window(c))
	out := make([]int32, admitBatch)
	var epoch uint64
	flips := 0
	pass := func() {
		epoch += 2
		for i, p := range flows {
			c.Insert(p, epoch, int32(i))
		}
		for i, p := range recent {
			c.Insert(p, epoch, int32(i))
			c.Probe(p, epoch)
			c.Probe(p, epoch-1)
		}
		c.LookupBatch(recent, epoch, out)
		if f, _, _, _ := c.NoteLookups(0, win, 0); f {
			flips++
		}
		c.LookupBatch(recent, epoch, out)
		if f, _, _, _ := c.NoteLookups(win, 0, 0); f {
			flips++
		}
		for _, p := range recent {
			c.Probe(p, epoch+1)
		}
	}
	pass() // first touch of every set and of the runtime's lazy state
	var ms runtime.MemStats
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		pass()
		runtime.ReadMemStats(&ms)
		best = min(best, ms.Mallocs-before)
	}
	if best != 0 {
		t.Fatalf("a pass over every Insert/Probe/LookupBatch branch allocates %d objects", best)
	}
	if s := c.Stats(); flips != 8 || s.Evictions == 0 || s.StaleEvictions == 0 {
		t.Fatalf("the passes missed a branch: %d mode flips (want 8), stats %+v", flips, s)
	}
}
