package engine

import (
	"encoding/binary"
	"fmt"
	"io"
	"unsafe"

	"repro/internal/image"
	"repro/internal/rule"
)

// Engine image serialization: Snapshot walks one epoch's immutable
// arenas into the container format (internal/image) and Restore
// publishes a serving engine from it without invoking Build.
//
// What travels: the flat arenas (nodes/cuts/kids), the flattened leaf
// table, the ruleIDs pool, the rule bounds, the SoA comparator-bank
// arenas, and the kernel-independent metadata (leaf count, sentinel,
// garbage counters, the bank's sweep-order permutation).
//
// What does NOT travel, because it is host-dependent and re-derived on
// restore: the scan-kernel tag (the restoring host re-probes its own
// CPU features and stamps defaultKern) and the bank's resolved sweep
// pointers plus over-read padding (soaBank.pad() re-establishes both).
//
// Restore trusts nothing: beyond the container's checksums it
// re-validates every structural invariant the classify path relies on —
// section sizes, leaf and kid block bounds, rule-ID ranges, the
// mask/shift fan-out of every node against its child block, the
// breadth-first child>parent numbering that guarantees walk termination,
// and the SoA arenas' slot-for-slot agreement with the rule table — so
// a checksum-valid but inconsistent image fails closed with a
// *image.FormatError instead of producing a panicking or silently-wrong
// engine.
//
// On little-endian hosts both directions are zero-copy: Snapshot
// aliases the arenas as section bytes, and Restore aliases validated
// section bytes back as typed arenas (section starts are 8-aligned by
// the container). The SoA arenas are emitted before the rule table so
// an aliased arena's SIMD over-read slack (soaPadSlots) still lands
// inside the image buffer; Restore falls back to a padded copy when it
// does not. Big-endian hosts take a per-word encode/decode loop.

// Section IDs of the engine image. Frozen: any layout change bumps
// image.Version instead of reinterpreting an existing ID.
const (
	secMeta    = 1
	secNodes   = 2
	secCuts    = 3
	secKids    = 4
	secLeaves  = 5
	secRuleIDs = 6
	secRules   = 7
	// Per-dimension SoA arenas: secSoALo+d / secSoAHi+d for each
	// dimension d.
	secSoALo = 16
	secSoAHi = 24
)

// metaLen is the fixed size of the secMeta section: numLeaves u32,
// sentinel i32, deadRuleSlots u64, deadKidSlots u64, order [5]u8,
// zero pad to 8 bytes.
const metaLen = 32

// The zero-copy alias paths depend on these layouts exactly; a field
// added to any of the POD structs must bump image.Version and fails
// compilation here first.
var (
	_ = [1]struct{}{}[unsafe.Sizeof(node{})-16]
	_ = [1]struct{}{}[unsafe.Sizeof(cut{})-3]
	_ = [1]struct{}{}[unsafe.Sizeof(leafRef{})-8]
	_ = [1]struct{}{}[unsafe.Sizeof(flatRule{})-40]
)

// hostLE reports whether this host stores integers little-endian — the
// on-disk byte order, and therefore the alias-in-place fast path.
var hostLE = func() bool {
	var x uint16 = 1
	//repro:allow unsafealias -- one-byte endianness probe of a local; package-level init cannot carry a shape annotation
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// podBytes returns the little-endian serialization of a slice whose
// element type is a padding-free struct of 32-bit words (asserted
// above). On little-endian hosts it aliases the slice's memory.
//
//repro:unsafe-shape aliases a pod []T as raw bytes; element types are asserted padding-free 32-bit-word structs
func podBytes[T any](s []T) []byte {
	size := int(unsafe.Sizeof(*new(T)))
	if len(s) == 0 {
		return nil
	}
	p := unsafe.Pointer(unsafe.SliceData(s))
	if hostLE {
		return unsafe.Slice((*byte)(p), len(s)*size)
	}
	// Big-endian: fields are native-order 32-bit words in declaration
	// order, so serializing each word little-endian is exactly the
	// on-disk layout.
	//repro:allow unsafealias -- p is the backing store of []T whose elements are 32-bit words: 4-byte aligned by the allocator
	words := unsafe.Slice((*uint32)(p), len(s)*size/4)
	out := make([]byte, len(words)*4)
	for i, w := range words {
		binary.LittleEndian.PutUint32(out[i*4:], w)
	}
	return out
}

// podSlice decodes a section of padding-free 32-bit-word structs,
// aliasing the section bytes in place on aligned little-endian hosts
// and copying otherwise. The caller has validated len(data) is a
// multiple of the element size.
//
//repro:unsafe-shape aliases section bytes as []T behind an explicit alignment guard; copies when misaligned
func podSlice[T any](data []byte) []T {
	size := int(unsafe.Sizeof(*new(T)))
	n := len(data) / size
	if n == 0 {
		return nil
	}
	p := unsafe.Pointer(unsafe.SliceData(data))
	if hostLE && uintptr(p)%unsafe.Alignof(*new(T)) == 0 {
		return unsafe.Slice((*T)(p), n)
	}
	out := make([]T, n)
	words := unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(out))), n*size/4)
	for i := range words {
		words[i] = binary.LittleEndian.Uint32(data[i*4:])
	}
	return out
}

// cutBytes / cutSlice handle the 3-byte cut entries, which are
// endianness-free (three single-byte fields) and so alias both ways on
// any host.
//
//repro:unsafe-shape aliases the 3-byte cut entries as raw bytes; cut has byte alignment
func cutBytes(s []cut) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*3)
}

//repro:unsafe-shape aliases section bytes as []cut; cut has byte alignment so any offset is valid
func cutSlice(data []byte) []cut {
	n := len(data) / 3
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*cut)(unsafe.Pointer(unsafe.SliceData(data))), n)
}

// arenaPadLen is the dedicated over-read slack appended to every SoA
// arena section: soaPadSlots zeroed slots, CRC-covered like the rest of
// the section. Restore aliases arena+slack entirely within the
// section's own bytes, so the SIMD over-read contract holds without
// borrowing a neighboring section's data — and a later Patch appending
// into the slack (the same thing pad()-managed live arenas allow)
// can only touch bytes this arena owns.
const arenaPadLen = soaPadSlots * 4

// arenaBytes serializes one SoA arena followed by its dedicated zeroed
// slack. Unlike the other pools this always copies: the live arena's
// own capacity slack holds garbage, and the image must be
// deterministic, zero-padded bytes.
//
//repro:unsafe-shape reads an aligned live arena as bytes for the copy-out; never aliased into the image
func arenaBytes(a []uint32) []byte {
	out := make([]byte, len(a)*4+arenaPadLen)
	if hostLE && len(a) > 0 {
		copy(out, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(a))), len(a)*4))
	} else {
		for i, w := range a {
			binary.LittleEndian.PutUint32(out[i*4:], w)
		}
	}
	return out
}

// arenaSlice decodes one SoA arena section (slots plus dedicated
// slack), aliasing it in place on aligned little-endian hosts with the
// slack as capacity — exactly the cap-len >= soaPadSlots contract
// soaBank.pad() establishes, so pad() never reallocates a restored
// bank. The caller has validated len(data) >= arenaPadLen and
// 4-divisibility.
//
//repro:unsafe-shape aliases arena section bytes as []uint32 behind an explicit mod-4 guard; copies when misaligned
func arenaSlice(data []byte) []uint32 {
	n := (len(data) - arenaPadLen) / 4
	if n > 0 && hostLE {
		p := unsafe.Pointer(unsafe.SliceData(data))
		if uintptr(p)%4 == 0 {
			return unsafe.Slice((*uint32)(p), n+soaPadSlots)[:n]
		}
	}
	out := make([]uint32, n, n+soaPadSlots)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(data[i*4:])
	}
	return out
}

// Snapshot serializes this engine — one epoch's immutable image — into
// the versioned, checksummed container format and writes it to w,
// returning the number of bytes written. The engine is immutable, so
// Snapshot is safe concurrently with classification and with patches
// deriving later epochs.
func (e *Engine) Snapshot(w io.Writer) (int64, error) {
	meta := make([]byte, metaLen)
	binary.LittleEndian.PutUint32(meta[0:4], uint32(e.numLeaves))
	binary.LittleEndian.PutUint32(meta[4:8], uint32(e.sentinel))
	binary.LittleEndian.PutUint64(meta[8:16], uint64(e.deadRuleSlots))
	binary.LittleEndian.PutUint64(meta[16:24], uint64(e.deadKidSlots))
	copy(meta[24:24+rule.NumDims], e.soa.order[:])

	flat := make([]leafRef, e.numLeaves)
	for i := range flat {
		flat[i] = e.leafAt(int32(i))
	}

	secs := make([]image.Section, 0, 7+2*rule.NumDims)
	secs = append(secs,
		image.Section{ID: secMeta, Data: meta},
		image.Section{ID: secNodes, Data: podBytes(e.nodes)},
		image.Section{ID: secCuts, Data: cutBytes(e.cuts)},
		image.Section{ID: secKids, Data: podBytes(e.kids)},
		image.Section{ID: secLeaves, Data: podBytes(flat)},
		image.Section{ID: secRuleIDs, Data: podBytes(e.ruleIDs)},
	)
	for d := 0; d < rule.NumDims; d++ {
		secs = append(secs, image.Section{ID: secSoALo + uint32(d), Data: arenaBytes(e.soa.lo[d])})
	}
	for d := 0; d < rule.NumDims; d++ {
		secs = append(secs, image.Section{ID: secSoAHi + uint32(d), Data: arenaBytes(e.soa.hi[d])})
	}
	secs = append(secs, image.Section{ID: secRules, Data: podBytes(e.rules)})
	return image.Write(w, secs)
}

func imgErr(sec uint32, format string, args ...any) error {
	return &image.FormatError{Offset: -1, Section: sec, Msg: fmt.Sprintf(format, args...)}
}

// RestoreEngineBytes decodes and validates an engine image held in
// memory (mapped file, os.ReadFile, in-process snapshot), returning a
// ready-to-serve Engine. Every failure — container corruption or an
// engine-level invariant violation — is a *image.FormatError; on
// success the engine is re-stamped for this host (scan kernel, SoA
// sweep pointers and padding) and is safe for immediate concurrent
// classification and for further patching via Patch/PatchBatch. The
// restored engine's arenas alias b on little-endian hosts, so the whole
// restore allocates only the chunked leaf table. b must not be mutated
// while the engine is alive.
func RestoreEngineBytes(b []byte) (*Engine, error) {
	secs, err := image.ReadBytes(b)
	if err != nil {
		return nil, err
	}
	return restoreSections(secs)
}

// RestoreBytes restores an engine image (see RestoreEngineBytes) and
// publishes it as a serving Handle epoch — the replica cold-start path:
// no Build, no Compile, ready for Classify and for catch-up deltas via
// ApplyBatch.
func RestoreBytes(b []byte) (*Handle, error) {
	e, err := RestoreEngineBytes(b)
	if err != nil {
		return nil, err
	}
	return NewHandle(e), nil
}

//repro:arena-writer installs restored arenas into a brand-new unpublished engine
func restoreSections(secs []image.Section) (*Engine, error) {
	byID := make(map[uint32][]byte, len(secs))
	for _, s := range secs {
		byID[s.ID] = s.Data
	}
	want := 7 + 2*rule.NumDims
	if len(secs) != want {
		return nil, imgErr(0, "engine image has %d sections, want %d", len(secs), want)
	}
	need := func(id uint32, elem int, what string) ([]byte, error) {
		d, ok := byID[id]
		if !ok {
			return nil, imgErr(id, "missing %s section", what)
		}
		if len(d)%elem != 0 {
			return nil, imgErr(id, "%s section length %d is not a multiple of %d", what, len(d), elem)
		}
		return d, nil
	}

	meta, ok := byID[secMeta]
	if !ok || len(meta) != metaLen {
		return nil, imgErr(secMeta, "missing or missized metadata section")
	}
	numLeaves := int32(binary.LittleEndian.Uint32(meta[0:4]))
	sentinel := int32(binary.LittleEndian.Uint32(meta[4:8]))
	deadRuleSlots := binary.LittleEndian.Uint64(meta[8:16])
	deadKidSlots := binary.LittleEndian.Uint64(meta[16:24])
	var order [rule.NumDims]uint8
	copy(order[:], meta[24:24+rule.NumDims])
	for _, b := range meta[24+rule.NumDims:] {
		if b != 0 {
			return nil, imgErr(secMeta, "nonzero metadata padding")
		}
	}
	var seenDim [rule.NumDims]bool
	for _, d := range order {
		if int(d) >= rule.NumDims || seenDim[d] {
			return nil, imgErr(secMeta, "sweep order %v is not a permutation of the dimensions", order)
		}
		seenDim[d] = true
	}

	nodesB, err := need(secNodes, 16, "node")
	if err != nil {
		return nil, err
	}
	cutsB, err := need(secCuts, 3, "cut")
	if err != nil {
		return nil, err
	}
	kidsB, err := need(secKids, 4, "kid")
	if err != nil {
		return nil, err
	}
	leavesB, err := need(secLeaves, 8, "leaf table")
	if err != nil {
		return nil, err
	}
	ruleIDsB, err := need(secRuleIDs, 4, "rule-ID pool")
	if err != nil {
		return nil, err
	}
	rulesB, err := need(secRules, 40, "rule table")
	if err != nil {
		return nil, err
	}

	e := &Engine{
		nodes:         podSlice[node](nodesB),
		cuts:          cutSlice(cutsB),
		kids:          podSlice[int32](kidsB),
		ruleIDs:       podSlice[int32](ruleIDsB),
		rules:         podSlice[flatRule](rulesB),
		sentinel:      sentinel,
		deadRuleSlots: int(deadRuleSlots),
		deadKidSlots:  int(deadKidSlots),
		kern:          defaultKern, // host-dependent: never restored
	}
	flat := podSlice[leafRef](leavesB)
	slots := len(e.ruleIDs)
	arena := func(id uint32, what string) ([]uint32, error) {
		b, err := need(id, 4, what)
		if err != nil {
			return nil, err
		}
		if len(b) != slots*4+arenaPadLen {
			return nil, imgErr(id, "%s section has %d bytes, want %d slots plus %d-byte slack", what, len(b), slots, arenaPadLen)
		}
		for _, pb := range b[slots*4:] {
			if pb != 0 {
				return nil, imgErr(id, "%s over-read slack is not zeroed", what)
			}
		}
		return arenaSlice(b), nil
	}
	for d := 0; d < rule.NumDims; d++ {
		if e.soa.lo[d], err = arena(secSoALo+uint32(d), "SoA lo"); err != nil {
			return nil, err
		}
		if e.soa.hi[d], err = arena(secSoAHi+uint32(d), "SoA hi"); err != nil {
			return nil, err
		}
	}
	e.soa.order = order

	if err := e.validateRestored(flat, numLeaves, deadRuleSlots, deadKidSlots); err != nil {
		return nil, err
	}
	e.setLeaves(flat)
	e.soa.pad()
	return e, nil
}

// validateRestored checks every structural invariant the classify path
// depends on, so that a checksum-valid but inconsistent image can never
// panic the walk or scan. The checks mirror what Compile guarantees by
// construction:
//
//   - every node's cut and kid block lies inside its pool, and the
//     node's maximum mask/shift fan-out stays inside its kid block (the
//     walk computes child indexes exactly from these fields);
//   - every internal child reference points strictly forward (layout()
//     numbers nodes breadth-first and patches never rewrite internal
//     refs, so child > parent holds for every valid image — and it is
//     what bounds the walk: indexes strictly increase, so traversal
//     terminates);
//   - every leaf window lies inside the rule-ID pool and every pooled
//     rule ID indexes the rule table;
//   - the SoA arenas agree slot-for-slot with the rule table through
//     the pool (the bank is derived state; disagreement means a forged
//     or torn image that would classify silently wrong).
func (e *Engine) validateRestored(flat []leafRef, numLeaves int32, deadRuleSlots, deadKidSlots uint64) error {
	if int(numLeaves) != len(flat) {
		return imgErr(secMeta, "metadata says %d leaves, leaf table has %d", numLeaves, len(flat))
	}
	if len(e.nodes) == 0 || len(flat) == 0 {
		return imgErr(secNodes, "engine image has no root node or no leaves")
	}
	if e.sentinel < -1 || e.sentinel >= numLeaves {
		return imgErr(secMeta, "sentinel leaf %d out of range [-1,%d)", e.sentinel, numLeaves)
	}
	if deadRuleSlots > uint64(len(e.ruleIDs)) || deadKidSlots > uint64(len(e.kids)) {
		return imgErr(secMeta, "garbage counters exceed pool sizes")
	}
	nCuts, nKids, nNodes := int64(len(e.cuts)), int64(len(e.kids)), int64(len(e.nodes))
	for i := range e.nodes {
		n := &e.nodes[i]
		if n.cutOff < 0 || n.cutLen < 0 || int64(n.cutOff)+int64(n.cutLen) > nCuts {
			return imgErr(secNodes, "node %d cut block [%d,+%d) outside cut pool of %d", i, n.cutOff, n.cutLen, nCuts)
		}
		if n.kidOff < 0 || n.kidLen < 0 || int64(n.kidOff)+int64(n.kidLen) > nKids {
			return imgErr(secNodes, "node %d kid block [%d,+%d) outside kid pool of %d", i, n.kidOff, n.kidLen, nKids)
		}
		// The walk's child index is the sum of per-cut contributions;
		// each is maximized at v = mask (uint32 shift semantics match
		// walk exactly, including truncating left shifts). The sum must
		// stay inside the kid block — this also forces kidLen >= 1.
		var maxIdx int64
		for _, c := range e.cuts[n.cutOff : n.cutOff+n.cutLen] {
			if int(c.dim) >= rule.NumDims {
				return imgErr(secCuts, "node %d cuts dimension %d", i, c.dim)
			}
			v := uint32(c.mask)
			var contrib uint32
			if c.shift >= 0 {
				contrib = v >> uint(c.shift)
			} else {
				contrib = v << uint(-c.shift)
			}
			maxIdx += int64(contrib)
		}
		if maxIdx >= int64(n.kidLen) {
			return imgErr(secNodes, "node %d fan-out %d exceeds kid block of %d", i, maxIdx+1, n.kidLen)
		}
		for _, ref := range e.kids[n.kidOff : n.kidOff+n.kidLen] {
			if ref >= 0 {
				if int64(ref) >= nNodes {
					return imgErr(secKids, "node %d child %d outside node table of %d", i, ref, nNodes)
				}
				if int(ref) <= i {
					return imgErr(secKids, "node %d child %d breaks breadth-first order (walk would not terminate)", i, ref)
				}
			} else if ^ref >= numLeaves {
				return imgErr(secKids, "node %d leaf child %d outside leaf table of %d", i, ^ref, numLeaves)
			}
		}
	}
	nIDs := int64(len(e.ruleIDs))
	for i, l := range flat {
		if l.off < 0 || l.n < 0 || int64(l.off)+int64(l.n) > nIDs {
			return imgErr(secLeaves, "leaf %d window [%d,+%d) outside rule-ID pool of %d", i, l.off, l.n, nIDs)
		}
	}
	// Pool and SoA validation fused into one pass, branchless in the
	// hot path: per slot, a wraparound bounds check on the pooled rule
	// ID and an XOR-accumulated slot-for-slot comparison of the five
	// lo/hi arena streams against the 40-byte rule row. The arenas are
	// derived state; disagreement means a forged or torn image that
	// would classify silently wrong. This loop is most of restore's CPU
	// budget, hence the shape (restore latency is the feature).
	nRules := uint32(len(e.rules))
	slots := len(e.ruleIDs)
	lo0, lo1, lo2, lo3, lo4 := e.soa.lo[0][:slots], e.soa.lo[1][:slots], e.soa.lo[2][:slots], e.soa.lo[3][:slots], e.soa.lo[4][:slots]
	hi0, hi1, hi2, hi3, hi4 := e.soa.hi[0][:slots], e.soa.hi[1][:slots], e.soa.hi[2][:slots], e.soa.hi[3][:slots], e.soa.hi[4][:slots]
	for i, id := range e.ruleIDs {
		if uint32(id) >= nRules {
			return imgErr(secRuleIDs, "pool slot %d holds rule ID %d, table has %d", i, id, nRules)
		}
		r := &e.rules[id]
		diff := (lo0[i] ^ r.lo[0]) | (hi0[i] ^ r.hi[0]) |
			(lo1[i] ^ r.lo[1]) | (hi1[i] ^ r.hi[1]) |
			(lo2[i] ^ r.lo[2]) | (hi2[i] ^ r.hi[2]) |
			(lo3[i] ^ r.lo[3]) | (hi3[i] ^ r.hi[3]) |
			(lo4[i] ^ r.lo[4]) | (hi4[i] ^ r.hi[4])
		if diff != 0 {
			return imgErr(secSoALo, "SoA arena slot %d disagrees with rule %d", i, id)
		}
	}
	return nil
}

// LayoutEqual reports whether two engines describe byte-identical
// classification structure: same nodes, cuts, kid blocks, leaf table,
// pool and rule bounds. Host-derived state (scan kernel, SoA sweep
// pointers) and garbage counters are excluded. The facade uses it to
// reconcile a restored image against a background rebuild.
func (e *Engine) LayoutEqual(o *Engine) bool {
	if e.numLeaves != o.numLeaves || e.sentinel != o.sentinel ||
		len(e.nodes) != len(o.nodes) || len(e.cuts) != len(o.cuts) ||
		len(e.kids) != len(o.kids) || len(e.ruleIDs) != len(o.ruleIDs) ||
		len(e.rules) != len(o.rules) {
		return false
	}
	for i := range e.nodes {
		if e.nodes[i] != o.nodes[i] {
			return false
		}
	}
	for i := range e.cuts {
		if e.cuts[i] != o.cuts[i] {
			return false
		}
	}
	for i := range e.kids {
		if e.kids[i] != o.kids[i] {
			return false
		}
	}
	for i := range e.ruleIDs {
		if e.ruleIDs[i] != o.ruleIDs[i] {
			return false
		}
	}
	for i := range e.rules {
		if e.rules[i] != o.rules[i] {
			return false
		}
	}
	for i := int32(0); i < int32(e.numLeaves); i++ {
		if e.leafAt(i) != o.leafAt(i) {
			return false
		}
	}
	return true
}
