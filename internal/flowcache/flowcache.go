// Package flowcache is a sharded, fixed-size, zero-allocation exact-match
// flow cache: packet 5-tuple -> matched rule ID, stamped with the epoch of
// the engine snapshot that produced the answer.
//
// It fronts the flat classification engine for the traffic shape real
// links are dominated by — packet trains repeating the same 5-tuple — so
// the common case becomes one hash probe instead of a full tree walk. The
// paper's accelerator wins by making the common case cheap (30 parallel
// comparators over one memory word); this cache is the software twin of
// that idea applied one level up, exploiting flow locality instead of
// rule-set structure.
//
// Correctness under live updates rides on the epoch protocol of
// engine.Handle: every cached entry carries the snapshot epoch it was
// computed at, and a lookup only hits when the entry's epoch equals the
// reader's current epoch. Any Insert/Delete/recompile bumps the epoch, so
// every cached answer that could have been invalidated simply stops
// matching — stale entries are dropped on first touch (never revalidated:
// revalidation would cost the tree walk the cache exists to avoid, and
// the repopulating walk refreshes the entry anyway). Cached results are
// therefore always packet-exact for the epoch the caller presents.
//
// Concurrency and layout: the hit path must beat a warm tree walk (tens
// of ns), so it takes no lock and performs no read-modify-write — a hit
// is four atomic loads from one 24-byte entry (three words: the src/dst
// key; a sequence counter packed with the port/proto key; the epoch
// packed with the rule ID). Writers (miss repopulation, stale drops) are
// the rare path; they serialize on a per-shard mutex and publish entries
// with an odd/even sequence protocol, so a reader racing a writer
// observes a torn sequence and treats the probe as a miss. The table is
// split into power-of-two shards so concurrent writers rarely contend.
// All storage is allocated at construction; Probe and Insert allocate
// nothing.
//
// Admission is by set dueling: while recent traffic shows no locality,
// most sets are neither probed nor filled (see leaderStride). The mode
// only selects which packets consult the cache; a hit is still an exact
// same-epoch entry, so correctness does not depend on it.
package flowcache

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/rule"
)

// setWays is the set associativity: a key can live in any of its set's
// ways, absorbing hash collisions that would thrash a direct-mapped table
// under Zipf-skewed flow popularity.
const setWays = 4

// maxShards bounds the shard count; 64 uncontended write locks
// comfortably cover any realistic GOMAXPROCS fan-out.
const maxShards = 64

// Set-dueling admission (Qureshi et al., ISCA 2007): no knob, no
// per-flow state. One set in leaderStride — those whose index has its low
// bits clear, so every shard holds some — is a leader and always runs the
// full protocol; the rest follow one cache-wide mode bit, and in bypass
// mode a packet that hashes to a follower touches no cache line. A cache
// with fewer than leaderStride sets is all leaders and never bypasses.
// The mode is re-decided at the per-batch counter flush from the hit
// ratio of the lookups that were probed: all of them in normal mode, the
// leaders' in bypass mode, which see the per-set pressure the whole cache
// would.
//
// The thresholds straddle the break-even hit ratio h* at which a probed
// packet (hit: P; miss: P + re-probe R + walk E + insert I) costs what a
// bypassed one does (E): h* = 1 - (E-P)/(E+R+I), about 0.59 with the
// benchmark's per-layer figures (DESIGN.md §7). The window is
// windowPerCap times the capacity in probed lookups — the leaders' share
// of that in bypass mode — so the misses of one invalidation wave (every
// entry stale at once after an epoch bump: at most one per entry) or of
// a cold start fill a quarter of a window and cannot trip bypass alone.
const (
	leaderStride = 32
	bypassBelow  = 8  // enter bypass under 8/16 = 0.50 hits per probed lookup
	resumeAbove  = 11 // leave it over 11/16 = 0.69
	ratioDenom   = 16
	windowPerCap = 4
)

// Field packing. The 104-bit 5-tuple splits into the 64-bit address key
// (w0) and the 40-bit port/proto key, which shares w1 with a 24-bit
// sequence counter. w2 packs the epoch stamp (40 bits) with the rule ID
// (24 bits, stored as rid+1 so the zero word means "empty").
//
//	w0: srcIP(32) | dstIP(32)
//	w1: seq(24)   | srcPort(16) dstPort(16) proto(8)
//	w2: epoch1(40)| rid+1(24)
//
// The 24-bit seq wraps after 16M writes to one entry — a reader would
// need to stall inside a four-load window while that happens, so the ABA
// hazard is unreachable. The 40-bit epoch stamp wraps after ~10^12
// update bursts and an entry would have to sit untouched across the
// whole wrap to ever false-hit; rule IDs are capped at MaxRuleID
// (larger IDs are simply not cached).
const (
	key1Bits  = 40
	key1Mask  = 1<<key1Bits - 1
	seqOddBit = 1 << key1Bits // lowest seq bit: odd = write in progress

	ridBits = 24
	ridMask = 1<<ridBits - 1
)

// MaxRuleID is the largest rule ID the cache can store (2^24 - 2, over
// 16M rules). Answers for larger IDs pass through uncached.
const MaxRuleID = ridMask - 1

// entry is one cached flow, readable lock-free: w1's sequence bracket
// guards w0 and w2, so four loads (w1, w0, w2, w1) give a consistent
// snapshot or a detectable tear.
type entry struct {
	w0 atomic.Uint64
	w1 atomic.Uint64
	w2 atomic.Uint64
}

// set is one associativity group, sized so the compiler drops bounds
// checks on way probes.
type set [setWays]entry

// shard is one write-lock domain: the sets live in the Cache's single
// flat array (the read path indexes it directly, one dependent load
// fewer); a set's shard is its index's high bits. All shard fields are
// mutated only under mu.
type shard struct {
	mu       sync.Mutex // serializes writers (Insert, stale drops)
	victim   uint32     // round-robin replacement cursor
	stale    uint64
	inserts  uint64
	evicts   uint64
	occupied int

	_ [72]byte // keep neighbouring shards' write state off one cache line
}

// Cache is a sharded epoch-aware flow cache. All methods are safe for
// concurrent use.
type Cache struct {
	sets     []set
	idxShift uint32 // hash >> idxShift = set index (top log2(len(sets)) bits)
	shardSh  uint32 // set index >> shardSh = shard index
	shards   []shard

	// hits/misses live on the Cache, not the shards: the lock-free hit
	// path must not pay a read-modify-write per packet, so batch callers
	// use LookupBatch and flush their local tallies here via NoteLookups
	// once per batch; only the convenience Lookup counts per call.
	hits   atomic.Uint64
	misses atomic.Uint64

	// Admission state. followerMask is leaderStride-1, or 0 when every
	// set is a leader. win packs the open window's probed lookups (high 32
	// bits) and hits (low 32): one Add flushes a batch, one CompareAndSwap
	// closes the window on an exact pair.
	followerMask uint32
	bypass       atomic.Bool
	win          atomic.Uint64
	bypassed     atomic.Uint64
}

// Stats is a point-in-time aggregate of the cache counters.
type Stats struct {
	// Hits counts lookups answered from the cache at the caller's epoch.
	Hits uint64
	// Misses counts lookups that fell through to the tree walk (empty
	// slot, different flow, torn racing write, or stale epoch — stale
	// ones are also counted in StaleEvictions).
	Misses uint64
	// Bypassed counts packets answered by the engine without a probe or
	// an insert (follower sets in bypass mode), so Hits + Misses +
	// Bypassed is every packet presented. Bypassing is the current mode.
	Bypassed  uint64
	Bypassing bool
	// StaleEvictions counts entries dropped because a lookup or insert
	// touched them with a newer epoch: the invalidation signal of the
	// update pipeline doing its job.
	StaleEvictions uint64
	// Evictions counts live same-epoch entries displaced by Insert when a
	// set was full (capacity pressure, not invalidation).
	Evictions uint64
	// Inserts counts repopulations after a miss.
	Inserts uint64
	// Occupied is the number of live entries; Capacity the fixed total.
	Occupied, Capacity int
	// Shards is the number of lock domains.
	Shards int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// DefaultEntries is the capacity New substitutes for a non-positive
// request: 64k flows, a few MB, sized for one busy edge link.
const DefaultEntries = 1 << 16

// New builds a cache with at least entries slots (rounded up to a power
// of two, minimum one set per shard). entries <= 0 selects
// DefaultEntries.
func New(entries int) *Cache {
	if entries <= 0 {
		entries = DefaultEntries
	}
	total := ceilPow2(entries)
	if total < setWays {
		total = setWays
	}
	// One shard per ~1k entries up to maxShards: small caches stay
	// single-shard (no wasted fixed cost), big ones spread writers out.
	nShards := ceilPow2(total / 1024)
	if nShards < 1 {
		nShards = 1
	}
	if nShards > maxShards {
		nShards = maxShards
	}
	perShard := total / nShards
	if perShard < setWays {
		perShard = setWays
	}
	setsPerShard := perShard / setWays
	totalSets := setsPerShard * nShards
	c := &Cache{
		sets:     make([]set, totalSets),
		idxShift: uint32(64 - bits.TrailingZeros(uint(totalSets))),
		shardSh:  uint32(bits.TrailingZeros(uint(setsPerShard))),
		shards:   make([]shard, nShards),
	}
	if totalSets >= leaderStride {
		c.followerMask = leaderStride - 1
	}
	return c
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// packKey packs p into the address word and the 40-bit port/proto key.
// The packing is injective, so key equality is exact 5-tuple equality —
// the cache never aliases flows.
func packKey(p rule.Packet) (uint64, uint64) {
	k0 := uint64(p.SrcIP)<<32 | uint64(p.DstIP)
	k1 := uint64(p.SrcPort)<<24 | uint64(p.DstPort)<<8 | uint64(p.Proto)
	return k0, k1
}

// hash spreads the key with one multiply; the set index comes from the
// high bits of the product, which depend on every input bit.
func hash(k0, k1 uint64) uint64 {
	return (k0 ^ bits.RotateLeft64(k1, 21)) * 0x9e3779b97f4a7c15
}

// setIndex maps a packed key to its set using the top log2(len(sets))
// bits of the hash (the best-mixed bits of the multiply, and enough of
// them for any table size); the set's shard (write-lock domain) is
// setIndex >> shardSh.
func (c *Cache) setIndex(k0, k1 uint64) uint32 {
	return uint32(hash(k0, k1) >> c.idxShift)
}

// Lookup is Probe plus hit/miss accounting: use it for one-off lookups.
// Like Probe it ignores the admission mode and feeds no window: it is
// for callers whose miss costs far more than an engine walk. Batch loops
// should call LookupBatch and flush one NoteLookups per batch, so the hit
// path stays free of read-modify-writes.
func (c *Cache) Lookup(p rule.Packet, epoch uint64) (int32, bool) {
	rid, ok := c.Probe(p, epoch)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return rid, ok
}

// NoteLookups adds one LookupBatch's locally tallied outcomes to the
// cache statistics and to the admission window, and closes the window
// when it is full: flipped reports that this call changed the mode, to
// bypassing, on a window of hits out of probed lookups (all zero
// otherwise). The hit path pays nothing for the policy: this is the one
// read-modify-write per batch the counters already cost.
func (c *Cache) NoteLookups(hits, misses, bypassed uint64) (flipped, bypassing bool, winHits, winProbed uint64) {
	if hits != 0 {
		c.hits.Add(hits)
	}
	if misses != 0 {
		c.misses.Add(misses)
	}
	if bypassed != 0 {
		c.bypassed.Add(bypassed)
	}
	if c.followerMask == 0 || hits+misses == 0 {
		return
	}
	// (A 2^32-packet batch would carry hits into the probed half; no host
	// this cache is sized for holds such a slice.)
	w := c.win.Add((hits+misses)<<32 | hits)
	on := c.bypass.Load()
	need, limit := windowPerCap*setWays*uint64(len(c.sets)), uint64(bypassBelow)
	if on {
		need, limit = need/leaderStride, resumeAbove
	}
	if w>>32 < need || !c.win.CompareAndSwap(w, 0) {
		return // window still open, or a racing flush extended it and will close it
	}
	winHits, winProbed = w&(1<<32-1), w>>32
	if bypassing = winHits*ratioDenom < winProbed*limit; bypassing == on {
		return false, false, 0, 0
	}
	c.bypass.Store(bypassing)
	return true, bypassing, winHits, winProbed
}

// Probe returns the cached rule ID for p if an entry exists for exactly
// this 5-tuple at exactly this epoch, without touching the hit/miss
// counters (the caller tallies and flushes via NoteLookups). An entry
// found at an older epoch is dropped (stale eviction) and reported as a
// miss, so the caller's tree walk both serves the packet and frees the
// slot for the repopulating Insert. The hit path takes no lock and
// performs no read-modify-write; Probe allocates nothing.
//
//repro:hotpath
func (c *Cache) Probe(p rule.Packet, epoch uint64) (int32, bool) {
	k0, k1 := packKey(p)
	return c.probeSet(c.setIndex(k0, k1), k0, k1, (epoch+1)<<ridBits)
}

// probeSet is the one copy of the lock-free read protocol, shared by
// Probe and ProbeBatch; ep1 is the caller's epoch stamp in w2's window.
func (c *Cache) probeSet(si uint32, k0, k1, ep1 uint64) (int32, bool) {
	st := &c.sets[si]
	for w := 0; w < setWays; w++ {
		e := &st[w]
		v1 := e.w1.Load()
		if v1&key1Mask != k1 || v1&seqOddBit != 0 {
			continue // different port/proto key, or mid-write
		}
		if e.w0.Load() != k0 {
			continue
		}
		w2 := e.w2.Load()
		if e.w1.Load() != v1 {
			continue // torn read raced a writer: miss
		}
		// w1 was even and unchanged around the w0/w2 loads, so all three
		// words belong to one write generation.
		if w2 == 0 {
			continue // empty
		}
		stamp := w2 &^ uint64(ridMask)
		switch {
		case stamp == ep1:
			return int32(w2&ridMask) - 1, true
		case stamp < ep1:
			// Same flow, older epoch: an update could have changed the
			// answer. Drop, don't revalidate.
			c.dropStale(&c.shards[si>>c.shardSh], e, k0, k1, ep1)
		}
		// stamp > ep1: the entry is newer than the reader's snapshot
		// (the reader lags the updater) — miss for this reader, but the
		// entry stays live for current-epoch readers.
		break
	}
	return 0, false
}

// NoEntry is the sentinel ProbeBatch writes for packets with no usable
// cache entry. It is distinct from every cacheable answer (-1, the
// no-rule-matches answer, is cacheable).
const NoEntry int32 = -2

// ProbeBatch probes every packet at one epoch, writing cached answers to
// out[i] and NoEntry for misses, and returns the number of hits. It is
// Probe without the per-packet call overhead — the batch loop keeps the
// hash and probe state in registers — and like Probe it takes no lock,
// performs no read-modify-write on the hit path, allocates nothing, and
// leaves hit/miss accounting to the caller (NoteLookups). out must be at
// least as long as pkts.
//
//repro:hotpath
func (c *Cache) ProbeBatch(pkts []rule.Packet, epoch uint64, out []int32) int {
	_ = out[:len(pkts)]
	ep1 := (epoch + 1) << ridBits
	hits := 0
	for i := range pkts {
		k0, k1 := packKey(pkts[i])
		if rid, ok := c.probeSet(c.setIndex(k0, k1), k0, k1, ep1); ok {
			out[i] = rid
			hits++
		} else {
			out[i] = NoEntry
		}
	}
	return hits
}

// NotProbed is the sentinel LookupBatch writes for packets the admission
// policy kept away from the cache: the caller classifies them and does
// not insert. Both sentinels sort below every cacheable answer (>= -1),
// so out[i] > NoEntry is the one-compare test for "answered".
const NotProbed int32 = -3

// LookupBatch is ProbeBatch under the admission policy. In normal mode
// it is exactly ProbeBatch (one extra atomic load per batch); in bypass
// mode only packets that hash to a leader set are probed and the rest
// get NotProbed without touching a cache line. It returns the number of
// hits; the caller tallies NoEntry and NotProbed and flushes all three
// through NoteLookups. out must be at least as long as pkts.
//
//repro:hotpath
func (c *Cache) LookupBatch(pkts []rule.Packet, epoch uint64, out []int32) int {
	if !c.bypass.Load() {
		return c.ProbeBatch(pkts, epoch, out)
	}
	_ = out[:len(pkts)]
	ep1, followers := (epoch+1)<<ridBits, c.followerMask
	hits := 0
	for i := range pkts {
		k0, k1 := packKey(pkts[i])
		si := c.setIndex(k0, k1)
		if si&followers != 0 {
			out[i] = NotProbed
		} else if rid, ok := c.probeSet(si, k0, k1, ep1); ok {
			out[i] = rid
			hits++
		} else {
			out[i] = NoEntry
		}
	}
	return hits
}

// dropStale clears one stale entry under the shard write lock,
// re-verifying it still holds the expected flow at an old epoch (a
// racing writer may have repopulated it).
func (c *Cache) dropStale(sh *shard, e *entry, k0, k1, ep1 uint64) {
	sh.mu.Lock()
	v1 := e.w1.Load()
	w2 := e.w2.Load()
	if v1&key1Mask == k1 && e.w0.Load() == k0 && w2 != 0 && w2&^uint64(ridMask) < ep1 {
		e.w1.Store(v1 + seqOddBit) // odd: readers miss
		e.w0.Store(0)
		e.w2.Store(0)
		e.w1.Store((v1 + 2*seqOddBit) &^ uint64(key1Mask)) // even, empty key
		sh.occupied--
		sh.stale++
	}
	sh.mu.Unlock()
}

// Insert caches rid as the answer for p at epoch (rid may be -1: misses
// are cached too). If the flow is already present (any epoch) its entry
// is overwritten in place; otherwise an empty or stale way is used, and
// with the set full a round-robin victim is evicted. Rule IDs above
// MaxRuleID are not cached. Insert allocates nothing.
//
//repro:hotpath
func (c *Cache) Insert(p rule.Packet, epoch uint64, rid int32) {
	if rid < -1 || int64(rid)+1 > ridMask {
		return
	}
	k0, k1 := packKey(p)
	si := c.setIndex(k0, k1)
	st := &c.sets[si]
	sh := &c.shards[si>>c.shardSh]
	ep1 := (epoch + 1) << ridBits
	sh.mu.Lock()
	// Choose the slot first, account after: a tentative choice must not
	// touch the counters, or an empty/stale way charged before a
	// same-flow way is found later in the set would corrupt them.
	const (
		refresh = iota // same flow already present (any epoch)
		empty          // unused way
		stale          // different flow at an older epoch: drop it
		evict          // live same-epoch flow displaced (capacity)
	)
	slot, kind := -1, evict
	for w := 0; w < setWays; w++ {
		e := &st[w]
		w2 := e.w2.Load()
		if w2 != 0 && e.w1.Load()&key1Mask == k1 && e.w0.Load() == k0 {
			slot, kind = w, refresh
			break
		}
		if slot < 0 && (w2 == 0 || w2&^uint64(ridMask) < ep1) {
			slot = w // first empty or stale way
			if w2 == 0 {
				kind = empty
			} else {
				kind = stale
			}
		}
	}
	if slot < 0 {
		// Set full of live same-epoch flows: displace the round-robin
		// victim.
		slot = int(sh.victim) % setWays
		sh.victim++
	}
	e := &st[slot]
	seq := e.w1.Load() &^ uint64(key1Mask)
	e.w1.Store(seq + seqOddBit) // odd: readers miss while we write
	e.w0.Store(k0)
	e.w2.Store(ep1 | uint64(rid+1))
	e.w1.Store(seq + 2*seqOddBit + k1) // even, new key published
	switch kind {
	case refresh: // net occupancy unchanged
	case empty:
		sh.occupied++
	case stale: // one dropped, one added
		sh.stale++
	case evict: // one displaced, one added
		sh.evicts++
	}
	sh.inserts++
	sh.mu.Unlock()
}

// Stats sums the cache counters. The aggregate is approximate under
// concurrent traffic but every counter is individually consistent.
func (c *Cache) Stats() Stats {
	var s Stats
	s.Shards = len(c.shards)
	s.Hits = c.hits.Load()
	s.Misses = c.misses.Load()
	s.Bypassed = c.bypassed.Load()
	s.Bypassing = c.bypass.Load()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.StaleEvictions += sh.stale
		s.Evictions += sh.evicts
		s.Inserts += sh.inserts
		s.Occupied += sh.occupied
		sh.mu.Unlock()
	}
	s.Capacity = len(c.sets) * setWays
	return s
}
