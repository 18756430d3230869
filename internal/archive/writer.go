package archive

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cpsmon/internal/can"
	"cpsmon/internal/recordlog"
	"cpsmon/internal/wire"
)

// Options configures a Writer.
type Options struct {
	// SegmentBytes is the rotation threshold: a record that would push
	// the active segment past this many bytes seals it and starts the
	// next. Zero selects 8 MiB; the floor is 4 KiB.
	SegmentBytes int64
	// IndexEvery is the sparse index stride in records. Zero selects
	// 64.
	IndexEvery int
}

const (
	defaultSegmentBytes = 8 << 20
	minSegmentBytes     = 4 << 10
	defaultIndexEvery   = 64
)

// ErrClosed reports an append to a closed Writer.
var ErrClosed = errors.New("archive: writer is closed")

// Writer appends records to an archive directory. It is safe for
// concurrent use; the append path performs no allocation in steady
// state (the record is built in a reused scratch buffer and written
// through a buffered file).
//
// Writer implements the fleet server's Archiver hook: ArchiveFrames,
// ArchiveEvent and ArchiveVerdict append one record each, and Flush
// pushes buffered bytes to the operating system (the fleet drain
// barrier calls it before acknowledging a final verdict).
type Writer struct {
	mu  sync.Mutex
	dir string
	opt Options

	seq     uint64 // next record sequence
	segNext uint64 // next segment number

	f          *os.File
	bw         *bufio.Writer
	size       int64 // bytes in the active segment, header included
	recs       uint32
	index      []indexEntry
	sinceIndex int
	segTmin    time.Duration
	segTmax    time.Duration
	spanSet    bool

	scratch []byte
	closed  bool
}

// OpenWriter opens (creating if needed) the archive directory and
// positions the writer after the newest record. A leftover .part from
// a crash is recovered — truncated to its last valid record, sealed —
// before the first append starts a fresh segment.
func OpenWriter(dir string, opt Options) (*Writer, error) {
	if opt.SegmentBytes == 0 {
		opt.SegmentBytes = defaultSegmentBytes
	}
	if opt.SegmentBytes < minSegmentBytes {
		opt.SegmentBytes = minSegmentBytes
	}
	if opt.IndexEvery <= 0 {
		opt.IndexEvery = defaultIndexEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	w := &Writer{dir: dir, opt: opt, seq: 1, segNext: 1}

	names, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for _, sf := range names {
		if sf.num >= w.segNext {
			w.segNext = sf.num + 1
		}
		if sf.sealed {
			seg, err := openSegment(filepath.Join(dir, sf.name), true)
			if err != nil {
				return nil, err
			}
			if seg.info.Records > 0 && seg.info.LastSeq >= w.seq {
				w.seq = seg.info.LastSeq + 1
			}
			continue
		}
		lastSeq, err := w.recoverPart(filepath.Join(dir, sf.name))
		if err != nil {
			return nil, err
		}
		if lastSeq >= w.seq {
			w.seq = lastSeq + 1
		}
	}
	return w, nil
}

// segFile pairs a segment file name with its parsed identity.
type segFile struct {
	name   string
	num    uint64
	sealed bool
}

// listSegments enumerates segment files in dir, ordered by number
// (a .part sorts after the .seg of the same number, though the pair
// cannot legally coexist).
func listSegments(dir string) ([]segFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	var out []segFile
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		if n, sealed, ok := parseSegName(ent.Name()); ok {
			out = append(out, segFile{name: ent.Name(), num: n, sealed: sealed})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].num != out[j].num {
			return out[i].num < out[j].num
		}
		return out[i].sealed && !out[j].sealed
	})
	return out, nil
}

// recoverPart recovers a torn active segment left by a crash: scan to
// the last valid record, truncate the tear, seal, rename. An empty or
// headerless part is removed. Returns the last sequence recovered
// (zero if none).
func (w *Writer) recoverPart(path string) (uint64, error) {
	sum, err := scanSegment(path)
	if err != nil {
		return 0, err
	}
	if sum.count == 0 {
		// Unreadable header or no complete record survived: nothing to
		// keep.
		if rmErr := os.Remove(path); rmErr != nil {
			return 0, fmt.Errorf("archive: recover %s: %w", path, rmErr)
		}
		countRecovered()
		return 0, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, fmt.Errorf("archive: recover %s: %w", path, err)
	}
	if err := f.Truncate(sum.validEnd); err != nil {
		f.Close()
		return 0, fmt.Errorf("archive: recover %s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return 0, fmt.Errorf("archive: recover %s: %w", path, err)
	}
	tail := sealTail(nil, sum.index, sum.validEnd, sum.lastSeq, sum.tmin, sum.tmax, sum.count)
	if _, err := f.Write(tail); err != nil {
		f.Close()
		return 0, fmt.Errorf("archive: recover %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, fmt.Errorf("archive: recover %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("archive: recover %s: %w", path, err)
	}
	sealed := filepath.Join(w.dir, segFileName(sum.segNum, true))
	if err := os.Rename(path, sealed); err != nil {
		return 0, fmt.Errorf("archive: recover %s: %w", path, err)
	}
	countRecovered()
	return sum.lastSeq, nil
}

// ArchiveFrames appends one frames record covering the run's capture
// span. Empty runs are ignored. This is the archive hot path: zero
// allocations in steady state, and the payload is delta-compressed —
// each frame carries a zigzag-varint timestamp delta against the
// previous frame and a varint ID, so a run of same-tick 11-bit-ID
// frames costs ~11 bytes each instead of 20. On a disk-bandwidth-bound
// pump that byte cut translates directly into ingest headroom.
func (w *Writer) ArchiveFrames(session uint64, vehicle string, frames []can.Frame) error {
	if len(frames) == 0 {
		return nil
	}
	tmin, tmax := frames[0].Time, frames[0].Time
	for _, f := range frames[1:] {
		if f.Time < tmin {
			tmin = f.Time
		}
		if f.Time > tmax {
			tmax = f.Time
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	b := w.begin(KindFrames, session, vehicle, tmin, tmax)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(frames)))
	prev := int64(0)
	for _, f := range frames {
		b = binary.AppendVarint(b, int64(f.Time)-prev)
		prev = int64(f.Time)
		b = binary.AppendUvarint(b, uint64(f.ID))
		b = append(b, f.Data[:]...)
	}
	return w.commit(b, tmin, tmax)
}

// ArchiveEvent appends one event record, payload encoded by the wire
// codec.
func (w *Writer) ArchiveEvent(session uint64, vehicle string, e wire.Event) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	b := w.begin(KindEvent, session, vehicle, e.Time, e.Time)
	b = wire.Append(b, e)
	return w.commit(b, e.Time, e.Time)
}

// ArchiveVerdict appends one verdict record, payload encoded by the
// wire codec. A verdict spans its whole session, so it carries no
// meaningful capture-time span and is never excluded by a time-range
// query.
func (w *Writer) ArchiveVerdict(session uint64, vehicle string, v wire.Verdict) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	b := w.begin(KindVerdict, session, vehicle, 0, 0)
	b = wire.Append(b, v)
	return w.commit(b, 0, 0)
}

// ArchiveSpecEpoch appends one spec-epoch marker: from this record on
// (in archive order), trace records were produced under the spec whose
// content hash it names. The marker carries no session, vehicle or
// capture-time span; like a verdict it is exempt from time-range
// filtering, and it is outside KindAll so only provenance-aware
// queries see it.
func (w *Writer) ArchiveSpecEpoch(epoch uint64, hash string) error {
	if len(hash) > 0xFFFF {
		return fmt.Errorf("archive: spec hash over 64KiB")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	b := w.begin(KindEpoch, 0, "", 0, 0)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(hash)))
	b = append(b, hash...)
	return w.commit(b, 0, 0)
}

// begin starts a record in the scratch buffer: length placeholder plus
// the envelope through the vehicle string.
func (w *Writer) begin(k Kind, session uint64, vehicle string, tmin, tmax time.Duration) []byte {
	b := w.scratch[:0]
	b = append(b, 0, 0, 0, 0) // length placeholder
	b = append(b, byte(k))
	b = binary.LittleEndian.AppendUint64(b, w.seq)
	b = binary.LittleEndian.AppendUint64(b, session)
	b = binary.LittleEndian.AppendUint64(b, uint64(tmin))
	b = binary.LittleEndian.AppendUint64(b, uint64(tmax))
	if len(vehicle) > math.MaxUint16 {
		vehicle = vehicle[:math.MaxUint16]
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(vehicle)))
	return append(b, vehicle...)
}

// commit seals the scratch record with the recordlog framing (CRC,
// length), rotates the segment if needed, and writes it.
func (w *Writer) commit(b []byte, tmin, tmax time.Duration) error {
	b = recordlog.Seal(b)
	w.scratch = b // keep the grown capacity
	if len(b)-4 > maxRecordLen {
		return fmt.Errorf("archive: record of %d bytes exceeds limit %d", len(b)-4, maxRecordLen)
	}
	if w.f == nil || (w.recs > 0 && w.size+int64(len(b)) > w.opt.SegmentBytes) {
		if err := w.rotate(); err != nil {
			return err
		}
	}
	if w.recs == 0 || w.sinceIndex >= w.opt.IndexEvery {
		w.index = append(w.index, indexEntry{seq: w.seq, tmin: tmin, off: w.size})
		w.sinceIndex = 0
	}
	n, err := w.bw.Write(b)
	w.size += int64(n)
	if err != nil {
		return fmt.Errorf("archive: append: %w", err)
	}
	if !w.spanSet || tmin < w.segTmin {
		w.segTmin = tmin
	}
	if !w.spanSet || tmax > w.segTmax {
		w.segTmax = tmax
	}
	w.spanSet = true
	w.recs++
	w.sinceIndex++
	w.seq++
	countAppend(Kind(b[4]), len(b))
	return nil
}

// rotate seals the active segment (if any) and opens the next.
func (w *Writer) rotate() error {
	if w.f != nil {
		if err := w.seal(); err != nil {
			return err
		}
	}
	path := filepath.Join(w.dir, segFileName(w.segNext, false))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("archive: open segment: %w", err)
	}
	hdr := appendHeader(w.scratchTail(), w.segNext, w.seq)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("archive: write segment header: %w", err)
	}
	w.f = f
	if w.bw == nil {
		w.bw = bufio.NewWriterSize(f, 1<<20)
	} else {
		w.bw.Reset(f)
	}
	w.size = headerSize
	w.recs = 0
	w.index = w.index[:0]
	w.sinceIndex = 0
	w.spanSet = false
	w.segTmin, w.segTmax = 0, 0
	w.segNext++
	return nil
}

// scratchTail returns spare scratch capacity to build small blocks in
// without disturbing the record bytes (only called between records).
func (w *Writer) scratchTail() []byte {
	return w.scratch[len(w.scratch):]
}

// seal finishes the active segment: index block, footer, sync, rename.
func (w *Writer) seal() error {
	segNum := w.segNext - 1
	tail := sealTail(w.scratchTail(), w.index, w.size, w.seq-1, w.segTmin, w.segTmax, w.recs)
	if _, err := w.bw.Write(tail); err != nil {
		return fmt.Errorf("archive: seal: %w", err)
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("archive: seal: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("archive: seal: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("archive: seal: %w", err)
	}
	from := filepath.Join(w.dir, segFileName(segNum, false))
	to := filepath.Join(w.dir, segFileName(segNum, true))
	if err := os.Rename(from, to); err != nil {
		return fmt.Errorf("archive: seal: %w", err)
	}
	w.f = nil
	countSealed()
	return nil
}

// sealTail builds the index block plus footer for a segment whose
// records end at dataEnd.
func sealTail(buf []byte, index []indexEntry, dataEnd int64, lastSeq uint64, tmin, tmax time.Duration, recs uint32) []byte {
	at := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(index)))
	for _, e := range index {
		buf = binary.LittleEndian.AppendUint64(buf, e.seq)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.tmin))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.off))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(dataEnd))
	buf = binary.LittleEndian.AppendUint64(buf, lastSeq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(tmin))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(tmax))
	buf = binary.LittleEndian.AppendUint32(buf, recs)
	crc := crc32.Checksum(buf[at:], crcTable)
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	return append(buf, footerMagic...)
}

// Flush pushes buffered record bytes to the operating system, so a
// concurrently opened Catalog (or a post-crash recovery) sees every
// record appended so far. It does not fsync; seal does.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.bw == nil {
		return nil
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("archive: flush: %w", err)
	}
	return nil
}

// Close seals the active segment and closes the writer. A writer that
// never appended leaves no file behind.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.f == nil {
		return nil
	}
	if w.recs == 0 {
		// Rotation never leaves an empty active segment, but a Close
		// racing the first append's rotate could: drop it.
		path := w.f.Name()
		w.bw.Flush()
		w.f.Close()
		w.f = nil
		return os.Remove(path)
	}
	return w.seal()
}

// NextSeq returns the sequence number the next appended record will
// carry.
func (w *Writer) NextSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Dir returns the archive directory.
func (w *Writer) Dir() string { return w.dir }

// SweepRetention removes sealed segments whose file modification time
// is older than maxAge, returning how many were removed. The active
// segment is never touched; maxAge <= 0 removes nothing. Modification
// time is the moment the segment was sealed, so a segment's age is
// measured from its newest record.
func (w *Writer) SweepRetention(maxAge time.Duration) (int, error) {
	if maxAge <= 0 {
		return 0, nil
	}
	names, err := listSegments(w.dir)
	if err != nil {
		return 0, err
	}
	cutoff := time.Now().Add(-maxAge)
	removed := 0
	for _, sf := range names {
		if !sf.sealed {
			continue
		}
		path := filepath.Join(w.dir, sf.name)
		st, err := os.Stat(path)
		if err != nil {
			continue // raced another sweep
		}
		if st.ModTime().After(cutoff) {
			continue
		}
		if err := os.Remove(path); err != nil {
			return removed, fmt.Errorf("archive: retention: %w", err)
		}
		removed++
		countSwept()
	}
	return removed, nil
}
