package sigdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrUnknownFrame is returned by DecodePlan.UnpackInto for a frame ID
// the plan was not compiled for. It is a sentinel so hot-path callers
// can test it without allocating.
var ErrUnknownFrame = errors.New("sigdb: unknown frame ID")

// planEntry is one compiled signal extraction: everything needed to
// turn the 64-bit payload word into a physical value and store it, with
// no name lookups and no allocation.
type planEntry struct {
	shift uint8  // start bit
	kind  Kind   // decode selector
	mask  uint64 // field mask at bit zero
	dst   int32  // destination index in the caller's value vector
}

// FramePlan is the compiled codec of one frame ID, resolved by
// DecodePlan.Lookup. A caller that both recognizes and decodes a frame,
// or packs and then latches it, resolves the ID once and works through
// the FramePlan.
type FramePlan struct {
	entries []planEntry
	// names mirrors entries for the map-building compatibility path.
	names []string
	// dst mirrors entries' destination indices; exposed (shared,
	// read-only) so callers can flip freshness bits without re-deriving
	// the signal ordering.
	dst []int
	// mask has bit k set for entries[k]: the frame's k-th declared
	// signal that is present in the compiled ordering. A CAN payload is
	// 64 bits, so a frame carries at most 64 signals and the mask never
	// overflows.
	mask uint64
}

// DecodePlan is a compiled frame decoder: per frame ID, the
// precomputed (start bit, width, kind, destination index) entries
// resolved once against a caller-supplied signal ordering. Decoding a
// frame through UnpackInto writes straight into a reusable value
// vector — zero allocations, zero string hashing — which is what lets
// the streaming monitor keep up with the bus (the runtime-monitoring
// question the paper defers in Section VI).
//
// A plan is immutable after compilation and safe for concurrent use.
type DecodePlan struct {
	width int
	// dense maps small frame IDs directly to a plan index (-1 when
	// absent); byID is the fallback for sparse ID spaces. Real vehicle
	// buses use 11-bit identifiers, so the dense path is the norm.
	dense []int32
	byID  map[uint32]int32
	plans []FramePlan
}

// maxDenseID bounds the directly-indexed frame ID table: it covers the
// full 11-bit standard CAN ID space.
const maxDenseID = 1 << 11

// CompilePlan compiles a decode plan against the given signal
// ordering: signal order[i] decodes into destination index i. Names
// must be unique and present in the database; database signals absent
// from order are simply skipped by the plan (their frames still decode,
// minus those fields). An empty order yields a plan that recognizes
// every frame but extracts nothing.
func (db *DB) CompilePlan(order []string) (*DecodePlan, error) {
	index := make(map[string]int, len(order))
	for i, name := range order {
		if _, ok := db.signals[name]; !ok {
			return nil, fmt.Errorf("sigdb: plan: unknown signal %q", name)
		}
		if _, dup := index[name]; dup {
			return nil, fmt.Errorf("sigdb: plan: duplicate signal %q in ordering", name)
		}
		index[name] = i
	}
	p := &DecodePlan{width: len(order), byID: make(map[uint32]int32)}
	frames := db.Frames()
	var maxID uint32
	for _, f := range frames {
		if f.ID > maxID {
			maxID = f.ID
		}
	}
	if maxID < maxDenseID {
		p.dense = make([]int32, maxID+1)
		for i := range p.dense {
			p.dense[i] = -1
		}
	}
	for _, f := range frames {
		fp := FramePlan{}
		for _, s := range f.Signals {
			di, ok := index[s.Name]
			if !ok {
				continue
			}
			fp.mask |= uint64(1) << uint(len(fp.entries))
			fp.entries = append(fp.entries, planEntry{
				shift: uint8(s.StartBit),
				kind:  s.Kind,
				mask:  fieldMask(0, s.BitLen),
				dst:   int32(di),
			})
			fp.names = append(fp.names, s.Name)
			fp.dst = append(fp.dst, di)
		}
		pi := int32(len(p.plans))
		p.plans = append(p.plans, fp)
		if p.dense != nil {
			p.dense[f.ID] = pi
		} else {
			p.byID[f.ID] = pi
		}
	}
	return p, nil
}

// Lookup resolves a frame ID to its compiled plan, nil when the plan
// was not compiled for it.
func (p *DecodePlan) Lookup(id uint32) *FramePlan {
	if p.dense != nil {
		if int64(id) < int64(len(p.dense)) {
			if i := p.dense[id]; i >= 0 {
				return &p.plans[i]
			}
		}
		return nil
	}
	if i, ok := p.byID[id]; ok {
		return &p.plans[i]
	}
	return nil
}

// Width returns the length of the compiled signal ordering — the
// minimum length of the destination vector passed to UnpackInto.
func (p *DecodePlan) Width() int { return p.width }

// Knows reports whether the plan was compiled for the given frame ID.
// Unknown IDs are foreign traffic a passive listener ignores.
func (p *DecodePlan) Knows(id uint32) bool { return p.Lookup(id) != nil }

// Dst returns the destination indices the given frame decodes into, in
// the frame's declared signal order (restricted to signals present in
// the compiled ordering). The slice is shared with the plan and must
// not be modified. ok is false for unknown frame IDs.
func (p *DecodePlan) Dst(id uint32) (dst []int, ok bool) {
	fp := p.Lookup(id)
	if fp == nil {
		return nil, false
	}
	return fp.dst, true
}

// decodeRaw converts one extracted bit field to a physical value; it is
// the shared decode kernel behind UnpackInto and the legacy Unpack.
func decodeRaw(kind Kind, raw uint64) float64 {
	switch kind {
	case Float:
		return float64(math.Float32frombits(uint32(raw)))
	case Bool:
		if raw&1 != 0 {
			return 1
		}
		return 0
	case Enum:
		return float64(raw)
	default:
		return math.NaN()
	}
}

// encodeRaw converts one physical value to its raw bit field — the
// inverse of decodeRaw, matching Signal.Encode exactly: float32
// precision for Float, 0/1 for Bool, and saturation to the field mask
// for Enum (the mask is (1<<BitLen)-1, Encode's saturation bound).
func encodeRaw(kind Kind, mask uint64, v float64) uint64 {
	switch kind {
	case Float:
		return uint64(math.Float32bits(float32(v)))
	case Bool:
		if v != 0 {
			return 1
		}
		return 0
	case Enum:
		if math.IsNaN(v) || v < 0 {
			return 0
		}
		if v >= float64(mask) {
			return mask
		}
		return uint64(v)
	default:
		return 0
	}
}

// PackFrom assembles the 8-byte payload of the given frame from the
// plan's value vector — the allocation-free inverse of UnpackInto, and
// byte-for-byte equivalent to DB.Pack when the plan was compiled over
// every signal. Frame signals absent from the compiled ordering encode
// as zero, exactly as Pack encodes signals missing from its map. src
// must be at least Width() long.
func (p *DecodePlan) PackFrom(id uint32, src []float64) ([8]byte, error) {
	fp := p.Lookup(id)
	if fp == nil {
		return [8]byte{}, ErrUnknownFrame
	}
	if len(src) < p.width {
		return [8]byte{}, fmt.Errorf("sigdb: plan: source holds %d values, plan width is %d", len(src), p.width)
	}
	return fp.Pack(src), nil
}

// Pack is PackFrom on a resolved frame. src must be at least the
// plan's Width() long.
func (fp *FramePlan) Pack(src []float64) [8]byte {
	var word uint64
	for _, e := range fp.entries {
		word |= (encodeRaw(e.kind, e.mask, src[e.dst]) & e.mask) << e.shift
	}
	var data [8]byte
	binary.LittleEndian.PutUint64(data[:], word)
	return data
}

// UnpackInto decodes the 8-byte payload of the given frame directly
// into dst at the plan's precomputed destination indices. It performs
// no allocation and no string hashing. The returned mask has bit k set
// for the frame's k-th planned signal (aligned with Dst); entries
// outside the mask — frame signals absent from the compiled ordering —
// leave dst untouched. dst must be at least Width() long. Unknown
// frame IDs return ErrUnknownFrame with dst untouched.
func (p *DecodePlan) UnpackInto(id uint32, data [8]byte, dst []float64) (uint64, error) {
	fp := p.Lookup(id)
	if fp == nil {
		return 0, ErrUnknownFrame
	}
	if len(dst) < p.width {
		return 0, fmt.Errorf("sigdb: plan: destination holds %d values, plan width is %d", len(dst), p.width)
	}
	fp.Unpack(data, dst)
	return fp.mask, nil
}

// Unpack is UnpackInto on a resolved frame. dst must be at least the
// plan's Width() long.
func (fp *FramePlan) Unpack(data [8]byte, dst []float64) {
	word := binary.LittleEndian.Uint64(data[:])
	for _, e := range fp.entries {
		dst[e.dst] = decodeRaw(e.kind, (word>>e.shift)&e.mask)
	}
}

// Latch decodes the payload into dst, as Unpack, and sets fresh at
// every index it writes — the indices Dst lists — in the same pass.
// dst and fresh must be at least the plan's Width() long.
func (fp *FramePlan) Latch(data [8]byte, dst []float64, fresh []bool) {
	word := binary.LittleEndian.Uint64(data[:])
	for _, e := range fp.entries {
		dst[e.dst] = decodeRaw(e.kind, (word>>e.shift)&e.mask)
		fresh[e.dst] = true
	}
}
