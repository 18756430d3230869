// Package sigdb defines CAN signal databases: the mapping from named,
// typed physical signals to bit fields inside periodic CAN frames.
//
// It plays the role of the proprietary signal database (DBC file) that the
// paper's monitor used to interpret broadcast traffic. A bolt-on passive
// monitor needs exactly two things from the target system: the frames on
// the bus and this database; everything else is derived.
package sigdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Kind enumerates the value types a signal can carry on the bus.
//
// The paper's injection interface distinguishes exactly these three:
// floats (including exceptional values such as NaN and infinities),
// booleans, and enumerations (non-negative integers).
type Kind int

const (
	// Float is an IEEE-754 single-precision value occupying 32 bits.
	Float Kind = iota + 1
	// Bool is a single-bit flag.
	Bool
	// Enum is an unsigned integer with a declared maximum ordinal.
	Enum
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case Float:
		return "float"
	case Bool:
		return "bool"
	case Enum:
		return "enum"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Signal describes one named signal packed into a CAN frame.
type Signal struct {
	// Name is the unique signal name, e.g. "TargetRange".
	Name string
	// FrameID is the CAN identifier of the carrying frame.
	FrameID uint32
	// StartBit is the little-endian bit offset within the 64-bit payload.
	StartBit int
	// BitLen is the field width in bits (32 for Float, 1 for Bool).
	BitLen int
	// Kind is the value type.
	Kind Kind
	// EnumMax is the largest valid ordinal for Enum signals.
	EnumMax uint32
	// Unit is the physical unit, for documentation and reports.
	Unit string
	// Comment is a one-line description (the Figure 1 annotation).
	Comment string
}

// validValue reports whether v is acceptable for the signal's declared
// type under the HIL interface's strong type checking. Floats accept any
// value including NaN and infinities; booleans accept exactly 0 and 1;
// enumerations accept integers in [0, EnumMax].
func (s *Signal) validValue(v float64) bool {
	switch s.Kind {
	case Float:
		return true
	case Bool:
		return v == 0 || v == 1
	case Enum:
		if math.IsNaN(v) || v != math.Trunc(v) || v < 0 {
			return false
		}
		return v <= float64(s.EnumMax)
	default:
		return false
	}
}

// CheckValue returns an error when v is not representable as this
// signal's declared type. This is the "data-type bounds checking
// performed by the interface" that limited the paper's fault injection.
func (s *Signal) CheckValue(v float64) error {
	if s.validValue(v) {
		return nil
	}
	return fmt.Errorf("sigdb: value %v rejected by type check for %s signal %q", v, s.Kind, s.Name)
}

// Encode converts a physical value to the raw bit field transmitted on
// the bus. Float signals carry raw IEEE-754 single-precision bits, so
// exceptional values survive the trip. Encode does not type-check; it
// mirrors a real vehicle bus, which has no value checking at all.
func (s *Signal) Encode(v float64) uint64 {
	switch s.Kind {
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
		max := uint64(1)<<uint(s.BitLen) - 1
		if v >= float64(max) {
			return max
		}
		return uint64(v)
	default:
		return 0
	}
}

// Decode converts a raw bit field back to a physical value.
func (s *Signal) Decode(raw uint64) float64 {
	switch s.Kind {
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

// FrameDef describes one periodic broadcast frame and the signals it
// carries.
type FrameDef struct {
	// ID is the CAN identifier.
	ID uint32
	// Name is a human-readable frame name.
	Name string
	// Period is the nominal broadcast period. The paper's system had two
	// relevant periods, with some frames four times slower than others.
	Period time.Duration
	// Signals lists the carried signals in ascending StartBit order.
	Signals []*Signal
}

// DB is a signal database: a set of frame definitions plus a by-name
// signal index.
type DB struct {
	frames  map[uint32]*FrameDef
	signals map[string]*Signal
	order   []string

	// canon caches the canonical decode plan (every signal in
	// declaration order) backing the legacy Unpack path. AddFrame
	// invalidates it; reads are lock-free so concurrent decoders never
	// contend.
	canon atomic.Pointer[DecodePlan]
}

// New returns an empty database.
func New() *DB {
	return &DB{
		frames:  make(map[uint32]*FrameDef),
		signals: make(map[string]*Signal),
	}
}

// AddFrame registers a frame definition. It fails on duplicate frame IDs,
// duplicate signal names, malformed fields, or overlapping bit fields.
func (db *DB) AddFrame(f *FrameDef) error {
	if _, ok := db.frames[f.ID]; ok {
		return fmt.Errorf("sigdb: duplicate frame ID 0x%X", f.ID)
	}
	if f.Period <= 0 {
		return fmt.Errorf("sigdb: frame %q has non-positive period %v", f.Name, f.Period)
	}
	var used uint64
	for _, s := range f.Signals {
		if err := validateSignal(s); err != nil {
			return err
		}
		if s.FrameID != f.ID {
			return fmt.Errorf("sigdb: signal %q declares frame 0x%X but is listed under 0x%X", s.Name, s.FrameID, f.ID)
		}
		if _, ok := db.signals[s.Name]; ok {
			return fmt.Errorf("sigdb: duplicate signal name %q", s.Name)
		}
		mask := fieldMask(s.StartBit, s.BitLen)
		if used&mask != 0 {
			return fmt.Errorf("sigdb: signal %q overlaps another field in frame %q", s.Name, f.Name)
		}
		used |= mask
	}
	db.frames[f.ID] = f
	for _, s := range f.Signals {
		db.signals[s.Name] = s
		db.order = append(db.order, s.Name)
	}
	db.canon.Store(nil)
	return nil
}

func validateSignal(s *Signal) error {
	if s.Name == "" {
		return fmt.Errorf("sigdb: signal with empty name in frame 0x%X", s.FrameID)
	}
	if s.StartBit < 0 || s.BitLen <= 0 || s.StartBit+s.BitLen > 64 {
		return fmt.Errorf("sigdb: signal %q has invalid bit field [%d,+%d)", s.Name, s.StartBit, s.BitLen)
	}
	switch s.Kind {
	case Float:
		if s.BitLen != 32 {
			return fmt.Errorf("sigdb: float signal %q must be 32 bits, got %d", s.Name, s.BitLen)
		}
	case Bool:
		if s.BitLen != 1 {
			return fmt.Errorf("sigdb: bool signal %q must be 1 bit, got %d", s.Name, s.BitLen)
		}
	case Enum:
		if s.BitLen > 32 {
			return fmt.Errorf("sigdb: enum signal %q wider than 32 bits", s.Name)
		}
		if s.EnumMax == 0 {
			return fmt.Errorf("sigdb: enum signal %q must declare EnumMax", s.Name)
		}
		if max := uint64(1)<<uint(s.BitLen) - 1; uint64(s.EnumMax) > max {
			return fmt.Errorf("sigdb: enum signal %q EnumMax %d does not fit in %d bits", s.Name, s.EnumMax, s.BitLen)
		}
	default:
		return fmt.Errorf("sigdb: signal %q has unknown kind %d", s.Name, int(s.Kind))
	}
	return nil
}

func fieldMask(start, length int) uint64 {
	if length >= 64 {
		return ^uint64(0) << uint(start)
	}
	return ((uint64(1) << uint(length)) - 1) << uint(start)
}

// Frame returns the definition for the given CAN ID.
func (db *DB) Frame(id uint32) (*FrameDef, bool) {
	f, ok := db.frames[id]
	return f, ok
}

// Frames returns all frame definitions sorted by CAN ID.
func (db *DB) Frames() []*FrameDef {
	out := make([]*FrameDef, 0, len(db.frames))
	for _, f := range db.frames {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Signal returns the signal definition for the given name.
func (db *DB) Signal(name string) (*Signal, bool) {
	s, ok := db.signals[name]
	return s, ok
}

// SignalNames returns every signal name in declaration order.
func (db *DB) SignalNames() []string {
	out := make([]string, len(db.order))
	copy(out, db.order)
	return out
}

// Pack assembles the 8-byte payload of the given frame from a value map.
// Signals missing from values are encoded as zero. Unknown frame IDs are
// an error.
func (db *DB) Pack(id uint32, values map[string]float64) ([8]byte, error) {
	var data [8]byte
	f, ok := db.frames[id]
	if !ok {
		return data, fmt.Errorf("sigdb: pack: unknown frame ID 0x%X", id)
	}
	var word uint64
	for _, s := range f.Signals {
		raw := s.Encode(values[s.Name])
		word |= (raw & (fieldMask(0, s.BitLen))) << uint(s.StartBit)
	}
	for i := range data {
		data[i] = byte(word >> uint(8*i))
	}
	return data, nil
}

// CanonicalPlan returns the database's cached decode plan over every
// signal in SignalNames order, compiling it on first use. Plans are
// immutable, so every caller shares this one. Two racing first uses
// both compile and one cache write wins; both plans are equivalent, so
// this stays lock-free.
func (db *DB) CanonicalPlan() *DecodePlan {
	if p := db.canon.Load(); p != nil {
		return p
	}
	// The canonical ordering is db.order: unique, known names by
	// construction, so compilation cannot fail.
	p, _ := db.CompilePlan(db.order)
	db.canon.Store(p)
	return p
}

// Unpack decodes the 8-byte payload of the given frame into named
// physical values. It is a compatibility wrapper over the compiled
// decode plan; allocation-free callers should compile a DecodePlan and
// use UnpackInto instead.
func (db *DB) Unpack(id uint32, data [8]byte) (map[string]float64, error) {
	fp := db.CanonicalPlan().Lookup(id)
	if fp == nil {
		return nil, fmt.Errorf("sigdb: unpack: unknown frame ID 0x%X", id)
	}
	word := binary.LittleEndian.Uint64(data[:])
	out := make(map[string]float64, len(fp.entries))
	for k, e := range fp.entries {
		out[fp.names[k]] = decodeRaw(e.kind, (word>>e.shift)&e.mask)
	}
	return out, nil
}
