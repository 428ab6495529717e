package engine

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/image"
	"repro/internal/pod"
	"repro/internal/rule"
)

// Engine image serialization: Snapshot walks one epoch's immutable
// arenas into the container format (internal/image) and Restore
// publishes a serving engine from it without invoking Build.
//
// What travels is the search structure and nothing else — seven
// sections: the metadata (garbage counters, leaf count, the bank's
// sweep-order permutation), the flat arenas (nodes/cuts/kids), the
// flattened leaf table, the ruleIDs pool and the rule bounds.
//
// What does NOT travel is re-derived on restore: the scan-kernel tag
// (the restoring host re-probes its own CPU features and stamps
// defaultKern) and the comparator bank (a pure function of the rule
// table and the ruleIDs pool; soaBank.build fills it exactly as Compile
// does, so it cannot disagree with its source).
//
// Restore trusts nothing: beyond the container's checksums it
// re-validates every structural invariant the classify path relies on —
// section sizes, leaf and kid block bounds, rule-ID ranges, the
// mask/shift fan-out of every node against its child block and the
// breadth-first child>parent numbering that guarantees walk termination
// — so a checksum-valid but inconsistent image fails closed with a
// *image.FormatError instead of producing a panicking or silently-wrong
// engine.
//
// On little-endian hosts both directions are zero-copy: Snapshot
// aliases the arenas as section bytes, and Restore aliases validated
// section bytes back as typed arenas (section starts are 8-aligned by
// the container). internal/pod makes both views; TestImageElementSizes
// pins the element sizes they depend on, so a field added to one of the
// structs must bump image.Version. The aliases have no spare capacity,
// so a restored engine's Patch appends reallocate and never write into
// the image buffer. Big-endian hosts take a per-word encode/decode loop.

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

	numSections = 7
)

// The secMeta section: deadRuleSlots u64, deadKidSlots u64, numLeaves
// u32, order [5]u8 at metaOrder, zero pad to metaLen.
const (
	metaOrder = 20
	metaLen   = 32
)

// Snapshot serializes this engine — one epoch's immutable image — into
// the versioned, checksummed container format and writes it to w,
// returning the number of bytes written. The engine is immutable, so
// Snapshot is safe concurrently with classification and with patches
// deriving later epochs.
func (e *Engine) Snapshot(w io.Writer) (int64, error) {
	meta := make([]byte, metaLen)
	binary.LittleEndian.PutUint64(meta[0:8], uint64(e.deadRuleSlots))
	binary.LittleEndian.PutUint64(meta[8:16], uint64(e.deadKidSlots))
	binary.LittleEndian.PutUint32(meta[16:20], uint32(e.numLeaves))
	copy(meta[metaOrder:], e.soa.order[:])

	flat := make([]leafRef, e.numLeaves)
	for i := range flat {
		flat[i] = e.leafAt(int32(i))
	}

	return image.Write(w, []image.Section{
		{ID: secMeta, Data: meta},
		{ID: secNodes, Data: pod.Bytes(e.nodes)},
		{ID: secCuts, Data: pod.Bytes(e.cuts)},
		{ID: secKids, Data: pod.Bytes(e.kids)},
		{ID: secLeaves, Data: pod.Bytes(flat)},
		{ID: secRuleIDs, Data: pod.Bytes(e.ruleIDs)},
		{ID: secRules, Data: pod.Bytes(e.rules)},
	})
}

func imgErr(sec uint32, format string, args ...any) error {
	return &image.FormatError{Offset: -1, Section: sec, Msg: fmt.Sprintf(format, args...)}
}

// RestoreEngineBytes decodes and validates an engine image held in
// memory (mapped file, os.ReadFile, in-process snapshot), returning a
// ready-to-serve Engine. Every failure — container corruption or an
// engine-level invariant violation — is a *image.FormatError; on
// success the engine is re-stamped for this host (scan kernel, SoA
// bank, sweep pointers and padding) and is safe for immediate
// concurrent classification and for further patching via
// Patch/PatchBatch. The restored engine's pools alias b on
// little-endian hosts, so the whole restore allocates the leaf table
// and the bank. b must not be mutated while the engine is alive; the
// engine and its patched successors never write to it.
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

func restoreSections(secs []image.Section) (*Engine, error) {
	byID := make(map[uint32][]byte, len(secs))
	for _, s := range secs {
		byID[s.ID] = s.Data
	}
	if len(secs) != numSections {
		return nil, imgErr(0, "engine image has %d sections, want %d", len(secs), numSections)
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
	deadRuleSlots := binary.LittleEndian.Uint64(meta[0:8])
	deadKidSlots := binary.LittleEndian.Uint64(meta[8:16])
	numLeaves := int32(binary.LittleEndian.Uint32(meta[16:20]))
	var order [rule.NumDims]uint8
	copy(order[:], meta[metaOrder:])
	for _, b := range meta[metaOrder+rule.NumDims:] {
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
		nodes:         pod.Slice[node](nodesB),
		cuts:          pod.Slice[cut](cutsB),
		kids:          pod.Slice[int32](kidsB),
		ruleIDs:       pod.Slice[int32](ruleIDsB),
		rules:         pod.Slice[flatRule](rulesB),
		deadRuleSlots: int(deadRuleSlots),
		deadKidSlots:  int(deadKidSlots),
		kern:          defaultKern, // host-dependent: never restored
	}
	flat := pod.Slice[leafRef](leavesB)
	if err := e.validateRestored(flat, numLeaves, deadRuleSlots, deadKidSlots); err != nil {
		return nil, err
	}
	e.setLeaves(flat)
	e.soa.build(e.rules, e.ruleIDs)
	e.soa.order = order
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
//   - every leaf window lies inside the rule-ID pool, every pooled rule
//     ID indexes the rule table or is a noRule pad (which is also what
//     lets soaBank.build resolve every slot afterwards), and no window
//     holds a pad: the AoS scan indexes the rule table with every ID in
//     its window.
func (e *Engine) validateRestored(flat []leafRef, numLeaves int32, deadRuleSlots, deadKidSlots uint64) error {
	if int(numLeaves) != len(flat) {
		return imgErr(secMeta, "metadata says %d leaves, leaf table has %d", numLeaves, len(flat))
	}
	if len(e.nodes) == 0 || len(flat) == 0 {
		return imgErr(secNodes, "engine image has no root node or no leaves")
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
	nRules := uint32(len(e.rules))
	var pads []int32 // pool slots holding noRule, ascending
	for i, id := range e.ruleIDs {
		if id == noRule {
			pads = append(pads, int32(i))
		} else if uint32(id) >= nRules {
			return imgErr(secRuleIDs, "pool slot %d holds rule ID %d, table has %d", i, id, nRules)
		}
	}
	nIDs := int64(len(e.ruleIDs))
	for i, l := range flat {
		if l.off < 0 || l.n < 0 || int64(l.off)+int64(l.n) > nIDs {
			return imgErr(secLeaves, "leaf %d window [%d,+%d) outside rule-ID pool of %d", i, l.off, l.n, nIDs)
		}
		if j, _ := slices.BinarySearch(pads, l.off); j < len(pads) && pads[j] < l.off+l.n {
			return imgErr(secLeaves, "leaf %d window [%d,+%d) holds the pad in pool slot %d", i, l.off, l.n, pads[j])
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
	if e.numLeaves != o.numLeaves ||
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
