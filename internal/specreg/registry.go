// Package specreg is the deployment's spec registry and rollout
// controller: the machinery that takes a revised rule file from "text
// in an operator's editor" to "the spec every verdict means" without
// restarting monitord or invalidating a single in-flight session.
//
// The paper's central lesson is that specifications are the moving
// part: the authors revised their rules repeatedly as archived
// violations taught them what the specs should have said. This package
// makes that loop safe to close against a *live* fleet. A candidate
// spec is stored content-addressed (Registry), re-checked against
// archived history (the offline gate), evaluated in shadow next to the
// active spec on real traffic (the fleet's shadow mode), and only then
// promoted — atomically, under a new spec epoch that is stamped into
// the ledger, the archive and every subsequent verdict. A candidate
// that diverges too much, or whose rollout coincides with an SLO burn,
// is rolled back automatically with zero candidate verdicts ever
// delivered (Controller).
//
// # Registry layout
//
// A registry is a directory holding one append-only log,
// registry.log: an internal/recordlog log (little-endian,
// length-prefixed, CRC-32C closed, torn tail truncated at open —
// exactly as the durable ledger) whose record bodies are
//
//	u8 kind | payload
//
// so on disk each record reads u32 len | u8 kind | payload | u32 crc.
// Kinds:
//
//	spec      u16 len + hash | u16 len + name | u32 len + source
//	candidate u16 len + hash
//	promote   u64 epoch | u16 len + hash
//	rollback  u16 len + hash | u16 len + reason
//
// Specs are immutable and content-addressed by SHA-256 of their
// source, so a re-push of identical text is a no-op and the hash in a
// ledger or archive epoch record provably names one rule text forever.
// Every append is fsync'd before returning: registry operations are
// rare (human-initiated) and each one changes what a deployed spec
// hash *means*.
package specreg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"cpsmon/internal/recordlog"
)

// registryName is the log's file name inside the registry directory.
const registryName = "registry.log"

// Record kinds. The zero value is invalid on purpose: a zeroed tail
// never parses as a record.
const (
	rSpec      = 0x01
	rCandidate = 0x02
	rPromote   = 0x03
	rRollback  = 0x04
)

const (
	// minBody is the smallest record body: kind + u16 length.
	minBody = 1 + 2
	// maxBody bounds a record body against corrupt length prefixes;
	// generous for a rule file, far below anything pathological.
	maxBody = 1 << 24
)

// Hash returns the registry's content address for a spec source: the
// SHA-256 of its bytes, hex encoded. Identical text always hashes
// identically, so the hash a verdict's epoch traces back to names one
// rule text, not one push.
func Hash(source string) string {
	sum := sha256.Sum256([]byte(source))
	return hex.EncodeToString(sum[:])
}

// Spec is one stored spec revision.
type Spec struct {
	// Hash is the content address (see Hash); Name the label it was
	// pushed under (informational — the hash is the identity); Source
	// the rule text itself.
	Hash, Name, Source string
}

// State is the registry's pointer state: which spec is active (and
// under which epoch), which is the pending candidate, and what the
// last rollback said.
type State struct {
	// ActiveHash and ActiveEpoch identify the promoted spec; zero
	// values before any promote.
	ActiveHash  string
	ActiveEpoch uint64
	// CandidateHash is the spec currently staged for rollout, empty
	// when none is.
	CandidateHash string
	// RollbackHash and RollbackReason describe the most recent
	// rollback, for operators asking "what happened to my push".
	RollbackHash, RollbackReason string
}

// Registry is the durable spec store. Safe for concurrent use; one
// monitord process owns one registry for its lifetime.
type Registry struct {
	mu    sync.Mutex
	log   *recordlog.Log
	path  string
	specs map[string]*Spec
	order []string // insertion order, for stable listings
	st    State
}

// OpenRegistry reads (and repairs) the registry log in dir, creating
// dir and the file as needed. A torn tail — the previous process died
// mid-append — is truncated to the last valid record.
func OpenRegistry(dir string) (*Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("specreg: %w", err)
	}
	path := filepath.Join(dir, registryName)
	r := &Registry{path: path, specs: make(map[string]*Spec)}
	log, _, err := recordlog.Open(path, minBody, maxBody, r.foldRecord)
	if err != nil {
		return nil, fmt.Errorf("specreg: %w", err)
	}
	r.log = log
	return r, nil
}

// Path returns the registry file's path.
func (r *Registry) Path() string { return r.path }

// foldRecord applies one validated record body, reporting false when
// it does not parse. A checksummed record this code does not
// understand — version skew or silent corruption — is thereby treated
// as the tear at open. Appends apply through the same fold, so the
// in-memory state is always the fold of the log.
func (r *Registry) foldRecord(body []byte) bool {
	kind, p := body[0], body[1:]
	switch kind {
	case rSpec:
		hash, p, ok := cut16(p)
		if !ok {
			return false
		}
		name, p, ok := cut16(p)
		if !ok {
			return false
		}
		source, p, ok := cut32(p)
		if !ok || len(p) != 0 {
			return false
		}
		if _, dup := r.specs[hash]; !dup {
			r.specs[hash] = &Spec{Hash: hash, Name: name, Source: source}
			r.order = append(r.order, hash)
		}
	case rCandidate:
		hash, p, ok := cut16(p)
		if !ok || len(p) != 0 {
			return false
		}
		r.st.CandidateHash = hash
	case rPromote:
		if len(p) < 8 {
			return false
		}
		hash, rest, ok := cut16(p[8:])
		if !ok || len(rest) != 0 {
			return false
		}
		r.st.ActiveEpoch = binary.LittleEndian.Uint64(p)
		r.st.ActiveHash = hash
		if r.st.CandidateHash == hash {
			r.st.CandidateHash = ""
		}
	case rRollback:
		hash, rest, ok := cut16(p)
		if !ok {
			return false
		}
		reason, rest, ok := cut16(rest)
		if !ok || len(rest) != 0 {
			return false
		}
		r.st.RollbackHash, r.st.RollbackReason = hash, reason
		if r.st.CandidateHash == hash {
			r.st.CandidateHash = ""
		}
	default:
		return false
	}
	return true
}

// cut16 splits a u16-length-prefixed string off p; cut32 a u32 one
// (spec sources can outgrow 64KiB).
func cut16(p []byte) (s string, rest []byte, ok bool) {
	if len(p) < 2 {
		return "", nil, false
	}
	n := int(binary.LittleEndian.Uint16(p))
	if len(p) < 2+n {
		return "", nil, false
	}
	return string(p[2 : 2+n]), p[2+n:], true
}

func cut32(p []byte) (s string, rest []byte, ok bool) {
	if len(p) < 4 {
		return "", nil, false
	}
	n := int(binary.LittleEndian.Uint32(p))
	if n > maxBody || len(p) < 4+n {
		return "", nil, false
	}
	return string(p[4 : 4+n]), p[4+n:], true
}

// commit appends, fsyncs and folds one record body. Caller holds mu.
func (r *Registry) commit(body []byte) error {
	if r.log == nil {
		return errors.New("specreg: registry closed")
	}
	if _, err := r.log.Append(body); err != nil {
		return fmt.Errorf("specreg: registry append: %w", err)
	}
	if err := r.log.Sync(); err != nil {
		return fmt.Errorf("specreg: registry sync: %w", err)
	}
	r.foldRecord(body)
	return nil
}

// appendStr16 appends a u16-length-prefixed string.
func appendStr16(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// Put stores a spec revision and returns its content hash. Pushing
// text the registry already holds is a durable no-op: the existing
// entry (and its original name) wins, and the same hash comes back.
func (r *Registry) Put(name, source string) (string, error) {
	if len(name) > 0xFFFF {
		return "", fmt.Errorf("specreg: spec name over 64KiB")
	}
	if len(source) > maxBody/2 {
		return "", fmt.Errorf("specreg: spec source over %d bytes", maxBody/2)
	}
	hash := Hash(source)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.specs[hash]; ok {
		return hash, nil
	}
	b := make([]byte, 0, 1+2+len(hash)+2+len(name)+4+len(source))
	b = appendStr16(append(b, rSpec), hash)
	b = appendStr16(b, name)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(source)))
	if err := r.commit(append(b, source...)); err != nil {
		return "", err
	}
	return hash, nil
}

// SetCandidate durably stages a stored spec for rollout.
func (r *Registry) SetCandidate(hash string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.specs[hash]; !ok {
		return fmt.Errorf("specreg: unknown spec %.12s", hash)
	}
	return r.commit(appendStr16([]byte{rCandidate}, hash))
}

// Promote durably records a stored spec becoming active under epoch.
// Epochs must be strictly increasing — the registry is the last line
// of defense against a stale controller replaying an old promote.
func (r *Registry) Promote(hash string, epoch uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.specs[hash]; !ok {
		return fmt.Errorf("specreg: unknown spec %.12s", hash)
	}
	if epoch <= r.st.ActiveEpoch {
		return fmt.Errorf("specreg: promote epoch %d not past active epoch %d", epoch, r.st.ActiveEpoch)
	}
	b := binary.LittleEndian.AppendUint64([]byte{rPromote}, epoch)
	return r.commit(appendStr16(b, hash))
}

// Rollback durably records a candidate being withdrawn, with the
// reason an operator will later ask for.
func (r *Registry) Rollback(hash, reason string) error {
	if len(hash) > 0xFFFF || len(reason) > 0xFFFF {
		return fmt.Errorf("specreg: rollback hash or reason over 64KiB")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.commit(appendStr16(appendStr16([]byte{rRollback}, hash), reason))
}

// Get returns a stored spec by content hash. A unique prefix of at
// least 12 hex digits also resolves, so operators can use the short
// form status displays print.
func (r *Registry) Get(hash string) (Spec, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.specs[hash]; ok {
		return *s, true
	}
	if len(hash) >= 12 {
		var found *Spec
		for _, h := range r.order {
			if len(h) >= len(hash) && h[:len(hash)] == hash {
				if found != nil {
					return Spec{}, false // ambiguous prefix
				}
				found = r.specs[h]
			}
		}
		if found != nil {
			return *found, true
		}
	}
	return Spec{}, false
}

// Specs lists every stored spec in insertion order.
func (r *Registry) Specs() []Spec {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Spec, 0, len(r.order))
	for _, h := range r.order {
		out = append(out, *r.specs[h])
	}
	return out
}

// State snapshots the registry's pointer state.
func (r *Registry) State() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.st
}

// Close closes the registry file. Appends were already fsync'd.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.log == nil {
		return nil
	}
	err := r.log.Close()
	r.log = nil
	return err
}
