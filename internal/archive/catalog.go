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
	"time"

	"cpsmon/internal/can"
	"cpsmon/internal/wire"
)

// SegmentInfo describes one segment file as the catalog found it.
type SegmentInfo struct {
	// Path is the file path; Number the segment number from its header.
	Path   string
	Number uint64
	// Sealed reports a .seg (immutable, indexed); false is the active
	// or abandoned .part.
	Sealed bool
	// Records counts valid records; FirstSeq/LastSeq their sequence
	// range (zero when empty); TMin/TMax the capture-time span.
	Records           uint32
	FirstSeq, LastSeq uint64
	TMin, TMax        time.Duration
	// Bytes is the file size on disk.
	Bytes int64
	// Scanned reports that the metadata above was rebuilt by a record
	// scan — the segment is a .part, or its footer failed validation.
	Scanned bool
	// Torn reports that the file holds bytes past the last valid
	// record (a crash tear or tail corruption); everything before the
	// tear is served.
	Torn bool
	// Damaged reports an unreadable header: the segment serves no
	// records at all.
	Damaged bool
}

// segment is one catalog entry: its public info plus where the record
// region ends and the sparse index for sealed segments.
type segment struct {
	info    SegmentInfo
	dataEnd int64
	index   []indexEntry
}

// Catalog is a read-only view over an archive directory. It never
// modifies files — a torn tail is skipped in place, not truncated —
// so it is safe to open while a Writer is appending (call
// Writer.Flush first to see the newest records).
type Catalog struct {
	dir  string
	segs []segment
}

// OpenCatalog scans dir and builds a catalog. Sealed segments are
// opened through their footer and index; a sealed segment whose
// footer fails validation, and any .part, is scanned record by
// record. Per the recovery invariant, a torn or damaged final segment
// never hides the sealed segments before it.
func OpenCatalog(dir string) (*Catalog, error) {
	names, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	c := &Catalog{dir: dir}
	for _, sf := range names {
		path := filepath.Join(dir, sf.name)
		seg, err := openSegment(path, sf.sealed)
		if err != nil {
			return nil, err
		}
		c.segs = append(c.segs, seg)
	}
	return c, nil
}

// Dir returns the catalog's directory.
func (c *Catalog) Dir() string { return c.dir }

// Segments returns the catalog's segment descriptions in segment
// order.
func (c *Catalog) Segments() []SegmentInfo {
	out := make([]SegmentInfo, len(c.segs))
	for i := range c.segs {
		out[i] = c.segs[i].info
	}
	return out
}

// Records returns the total valid record count across all segments.
func (c *Catalog) Records() uint64 {
	var n uint64
	for i := range c.segs {
		n += uint64(c.segs[i].info.Records)
	}
	return n
}

// openSegment builds one catalog entry, preferring the sealed fast
// path (footer + index) and falling back to a scan.
func openSegment(path string, sealed bool) (segment, error) {
	st, err := os.Stat(path)
	if err != nil {
		return segment{}, fmt.Errorf("archive: %w", err)
	}
	if sealed {
		if seg, err := openSealed(path, st.Size()); err == nil {
			return seg, nil
		}
		// Fall through: damaged footer or index — rebuild by scan.
	}
	sum, err := scanSegment(path)
	if err != nil {
		return segment{}, err
	}
	seg := segment{
		info: SegmentInfo{
			Path:    path,
			Number:  sum.segNum,
			Sealed:  sealed,
			Records: sum.count,
			TMin:    sum.tmin,
			TMax:    sum.tmax,
			Bytes:   st.Size(),
			Scanned: true,
			Torn:    sum.validEnd < st.Size(),
			Damaged: !sum.headerOK,
		},
		dataEnd: sum.validEnd,
		index:   sum.index,
	}
	if sum.count > 0 {
		seg.info.FirstSeq = sum.firstSeq
		seg.info.LastSeq = sum.lastSeq
	}
	return seg, nil
}

// openSealed reads a sealed segment through its footer and index
// block, validating both checksums.
func openSealed(path string, size int64) (segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return segment{}, err
	}
	defer f.Close()
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return segment{}, err
	}
	segNum, firstSeq, err := parseHeader(hdr[:])
	if err != nil {
		return segment{}, err
	}
	if size < headerSize+footerSize {
		return segment{}, errors.New("archive: sealed segment too small for a footer")
	}
	var ftr [footerSize]byte
	if _, err := f.ReadAt(ftr[:], size-footerSize); err != nil {
		return segment{}, err
	}
	if string(ftr[footerSize-8:]) != footerMagic {
		return segment{}, errors.New("archive: footer magic missing")
	}
	dataEnd := int64(binary.LittleEndian.Uint64(ftr[0:8]))
	lastSeq := binary.LittleEndian.Uint64(ftr[8:16])
	tmin := time.Duration(binary.LittleEndian.Uint64(ftr[16:24]))
	tmax := time.Duration(binary.LittleEndian.Uint64(ftr[24:32]))
	recs := binary.LittleEndian.Uint32(ftr[32:36])
	if dataEnd < headerSize || dataEnd > size-footerSize {
		return segment{}, errors.New("archive: footer index offset out of range")
	}
	block := make([]byte, size-footerSize+36-dataEnd)
	if _, err := f.ReadAt(block, dataEnd); err != nil {
		return segment{}, err
	}
	if got, want := crc32.Checksum(block, crcTable), binary.LittleEndian.Uint32(ftr[36:40]); got != want {
		return segment{}, errors.New("archive: footer checksum mismatch")
	}
	count := binary.LittleEndian.Uint32(block[0:4])
	if int(count)*indexEntrySize != len(block)-4-36 {
		return segment{}, errors.New("archive: index block size mismatch")
	}
	index := make([]indexEntry, count)
	for i := range index {
		at := 4 + i*indexEntrySize
		index[i] = indexEntry{
			seq:  binary.LittleEndian.Uint64(block[at : at+8]),
			tmin: time.Duration(binary.LittleEndian.Uint64(block[at+8 : at+16])),
			off:  int64(binary.LittleEndian.Uint64(block[at+16 : at+24])),
		}
	}
	seg := segment{
		info: SegmentInfo{
			Path:    path,
			Number:  segNum,
			Sealed:  true,
			Records: recs,
			TMin:    tmin,
			TMax:    tmax,
			Bytes:   size,
		},
		dataEnd: dataEnd,
		index:   index,
	}
	if recs > 0 {
		seg.info.FirstSeq = firstSeq
		seg.info.LastSeq = lastSeq
	}
	return seg, nil
}

// segScan summarizes a record-by-record segment scan.
type segScan struct {
	headerOK          bool
	segNum            uint64
	count             uint32
	firstSeq, lastSeq uint64
	tmin, tmax        time.Duration
	spanSet           bool
	index             []indexEntry
	validEnd          int64
}

// scanSegment walks a segment sequentially, validating every record's
// length, CRC and envelope, and stops at the first byte that does not
// parse — the tear. Errors are reserved for I/O failures; a torn or
// headerless file is a valid scan result.
func scanSegment(path string) (segScan, error) {
	var sum segScan
	f, err := os.Open(path)
	if err != nil {
		return sum, fmt.Errorf("archive: %w", err)
	}
	defer f.Close()

	br := bufio.NewReaderSize(f, 64<<10)
	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return sum, nil // shorter than a header: nothing valid
	}
	segNum, firstSeq, err := parseHeader(hdr[:])
	if err != nil {
		return sum, nil
	}
	sum.headerOK = true
	sum.segNum = segNum
	sum.validEnd = headerSize

	buf := make([]byte, 0, 4<<10)
	off := int64(headerSize)
	sinceIndex := 0
	for {
		var lenb [4]byte
		if _, err := io.ReadFull(br, lenb[:]); err != nil {
			return sum, nil
		}
		n := binary.LittleEndian.Uint32(lenb[:])
		if n < minRecordLen || n > maxRecordLen {
			return sum, nil
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			return sum, nil
		}
		env, err := parseEnvelope(buf)
		if err != nil {
			return sum, nil
		}
		if sum.count == 0 {
			sum.firstSeq = env.seq
			if env.seq != firstSeq {
				// The header promises the first sequence; a mismatch
				// means the record region does not belong to this
				// header.
				return sum, nil
			}
		}
		if sum.count == 0 || sinceIndex >= defaultIndexEvery {
			sum.index = append(sum.index, indexEntry{seq: env.seq, tmin: env.tmin, off: off})
			sinceIndex = 0
		}
		if !sum.spanSet || env.tmin < sum.tmin {
			sum.tmin = env.tmin
		}
		if !sum.spanSet || env.tmax > sum.tmax {
			sum.tmax = env.tmax
		}
		sum.spanSet = true
		sum.lastSeq = env.seq
		sum.count++
		sinceIndex++
		off += int64(4 + n)
		sum.validEnd = off
	}
}

// Query selects records from a catalog.
type Query struct {
	// From and To bound the capture-time window: a record is returned
	// when its [TMin, TMax] span overlaps [From, To]. To zero means
	// unbounded. Verdict records carry no span and always pass the
	// time filter. Within a frames record, individual frames outside
	// the window are filtered out.
	From, To time.Duration
	// Vehicle, when non-empty, selects one vehicle's records.
	Vehicle string
	// Session, when nonzero, selects one session's records.
	Session uint64
	// Kinds is a Kind mask; zero selects KindAll — every trace kind,
	// but not epoch markers, which must be requested explicitly.
	Kinds Kind
	// Shards, when above one, keeps only the records whose session
	// number modulo Shards equals Shard: the queries for Shard 0 to
	// Shards-1 partition the unfiltered query, each in archive order.
	// A record of another shard is still read and checksummed, so
	// corruption abandons a segment in every shard alike, but it is
	// not decoded.
	Shard, Shards uint64
}

// skipsSegment reports whether the query can never match a record in
// the segment: a damaged or empty segment, or — when the query cannot
// match verdicts (which are exempt from the time window) — a segment
// whose footer time span is disjoint from the window, since the span
// bounds every record inside.
func (q Query) skipsSegment(info SegmentInfo) bool {
	if info.Damaged || info.Records == 0 {
		return true
	}
	kinds := q.Kinds
	if kinds == 0 {
		kinds = KindAll
	}
	if kinds&(KindVerdict|KindEpoch) != 0 {
		return false
	}
	return (q.To > 0 && info.TMin > q.To) || (q.From > 0 && info.TMax < q.From)
}

// Record is one archived record as yielded by an Iterator. Frames is
// the iterator's reusable scratch buffer — valid only until the next
// call to Next.
type Record struct {
	Kind       Kind
	Seq        uint64
	Session    uint64
	Vehicle    string
	TMin, TMax time.Duration
	// Frames holds the in-window frames of a KindFrames record.
	Frames []can.Frame
	// Event holds a KindEvent record's payload.
	Event wire.Event
	// Verdict holds a KindVerdict record's payload.
	Verdict wire.Verdict
	// SpecEpoch and SpecHash hold a KindEpoch record's payload: the
	// promoted spec generation and its content hash.
	SpecEpoch uint64
	SpecHash  string
}

// Iterator walks a catalog's records in archive order (segment by
// segment, offset by offset — which is also global sequence order).
type Iterator struct {
	segs []segment
	q    Query

	si  int
	f   *os.File
	br  *bufio.Reader
	off int64
	end int64
	pos uint64

	lenb     [4]byte // record length prefix; a field so reading it does not allocate
	buf      []byte
	frames   []can.Frame
	vehicles map[string]string
	rec      Record
	err      error
	done     bool
}

// Iter starts a query. Close the iterator when done with it.
func (c *Catalog) Iter(q Query) *Iterator {
	return &Iterator{segs: c.segs, q: q, vehicles: make(map[string]string)}
}

// Next advances to the next matching record, reporting false at the
// end of the archive or on error (distinguish with Err).
func (it *Iterator) Next() bool {
	if it.done || it.err != nil {
		return false
	}
	for {
		if it.f == nil {
			if !it.openNext() {
				return false
			}
		}
		body, ok := it.readBody()
		if !ok {
			continue // segment exhausted (or tail corruption): next one
		}
		env, err := parseEnvelope(body)
		if err != nil {
			// A record inside the region the catalog validated failed
			// now: the file changed or rotted under us. Abandon this
			// segment, serve the rest.
			countCorrupt()
			it.closeSegment()
			continue
		}
		it.pos = env.seq
		if !it.match(env) {
			continue
		}
		if it.decode(env) {
			return true
		}
		if it.err != nil {
			return false
		}
	}
}

// openNext opens the next segment with records to serve. When the
// query cannot match verdicts (which are exempt from the time window),
// segments whose footer time span is disjoint from the window are
// pruned without being opened — the span bounds every record inside.
func (it *Iterator) openNext() bool {
	for it.si < len(it.segs) {
		seg := it.segs[it.si]
		it.si++
		if it.q.skipsSegment(seg.info) {
			continue
		}
		it.pos = seg.info.FirstSeq
		f, err := os.Open(seg.info.Path)
		if err != nil {
			it.err = fmt.Errorf("archive: %w", err)
			return false
		}
		if _, err := f.Seek(headerSize, io.SeekStart); err != nil {
			f.Close()
			it.err = fmt.Errorf("archive: %w", err)
			return false
		}
		it.f = f
		if it.br == nil {
			it.br = bufio.NewReaderSize(f, 64<<10)
		} else {
			it.br.Reset(f)
		}
		it.off = headerSize
		it.end = seg.dataEnd
		return true
	}
	it.done = true
	return false
}

// readBody reads the next record body in the open segment, reporting
// false when the segment's record region is exhausted.
func (it *Iterator) readBody() ([]byte, bool) {
	if it.off+4 > it.end {
		it.closeSegment()
		return nil, false
	}
	if _, err := io.ReadFull(it.br, it.lenb[:]); err != nil {
		it.closeSegment()
		return nil, false
	}
	n := binary.LittleEndian.Uint32(it.lenb[:])
	if n < minRecordLen || n > maxRecordLen || it.off+4+int64(n) > it.end {
		countCorrupt()
		it.closeSegment()
		return nil, false
	}
	if cap(it.buf) < int(n) {
		it.buf = make([]byte, n)
	}
	it.buf = it.buf[:n]
	if _, err := io.ReadFull(it.br, it.buf); err != nil {
		it.closeSegment()
		return nil, false
	}
	it.off += int64(4 + n)
	return it.buf, true
}

func (it *Iterator) closeSegment() {
	if it.f != nil {
		it.f.Close()
		it.f = nil
	}
}

// match applies the query's session, vehicle, kind and time filters to
// an envelope.
func (it *Iterator) match(env envelope) bool {
	if it.q.Session != 0 && env.session != it.q.Session {
		return false
	}
	if it.q.Shards > 1 && env.session%it.q.Shards != it.q.Shard {
		return false
	}
	if it.q.Vehicle != "" && string(env.vehicle) != it.q.Vehicle {
		return false
	}
	kinds := it.q.Kinds
	if kinds == 0 {
		kinds = KindAll
	}
	if env.kind&kinds == 0 {
		return false
	}
	if env.kind == KindVerdict || env.kind == KindEpoch {
		return true // no meaningful capture-time span
	}
	if env.tmax < it.q.From {
		return false
	}
	if it.q.To != 0 && env.tmin > it.q.To {
		return false
	}
	return true
}

// decode fills it.rec from a matched envelope, reporting false when
// the record decodes to nothing visible (every frame out of window).
func (it *Iterator) decode(env envelope) bool {
	it.rec = Record{
		Kind:    env.kind,
		Seq:     env.seq,
		Session: env.session,
		Vehicle: it.intern(env.vehicle),
		TMin:    env.tmin,
		TMax:    env.tmax,
		Frames:  nil,
	}
	switch env.kind {
	case KindFrames:
		return it.decodeFrames(env.payload)
	case KindEvent:
		rec, err := decodeWirePayload(env.payload)
		if err != nil {
			it.err = err
			return false
		}
		e, ok := rec.(wire.Event)
		if !ok {
			it.err = fmt.Errorf("archive: event record carries a %T payload", rec)
			return false
		}
		it.rec.Event = e
		return true
	case KindVerdict:
		rec, err := decodeWirePayload(env.payload)
		if err != nil {
			it.err = err
			return false
		}
		v, ok := rec.(wire.Verdict)
		if !ok {
			it.err = fmt.Errorf("archive: verdict record carries a %T payload", rec)
			return false
		}
		it.rec.Verdict = v
		return true
	case KindEpoch:
		p := env.payload
		if len(p) < 10 {
			it.err = errors.New("archive: epoch record payload truncated")
			return false
		}
		n := int(binary.LittleEndian.Uint16(p[8:10]))
		if len(p) != 10+n {
			it.err = fmt.Errorf("archive: epoch record declares a %d-byte hash over %d payload bytes", n, len(p)-10)
			return false
		}
		it.rec.SpecEpoch = binary.LittleEndian.Uint64(p[:8])
		it.rec.SpecHash = string(p[10:])
		return true
	}
	return false
}

// minFrameBytes is the smallest encoded frame: a one-byte time delta,
// a one-byte ID and 8 data bytes.
const minFrameBytes = 10

// decodeFrames parses a delta-compressed frames payload into the
// reusable scratch, keeping only in-window frames. Each frame is a
// zigzag-varint timestamp delta, a varint ID, and 8 data bytes; the
// smallest legal frame is minFrameBytes, which bounds the declared
// count against the payload length before the loop runs.
func (it *Iterator) decodeFrames(p []byte) bool {
	if len(p) < 4 {
		it.err = errors.New("archive: frames payload shorter than its count")
		return false
	}
	count := binary.LittleEndian.Uint32(p[:4])
	if uint64(count)*minFrameBytes > uint64(len(p)-4) {
		it.err = fmt.Errorf("archive: frames payload declares %d frames over %d bytes", count, len(p)-4)
		return false
	}
	it.frames = it.frames[:0]
	p = p[4:]
	prev := int64(0)
	for i := uint32(0); i < count; i++ {
		d, n := binary.Varint(p)
		if n <= 0 {
			it.err = errors.New("archive: frames payload has a malformed time delta")
			return false
		}
		p = p[n:]
		id, n := binary.Uvarint(p)
		if n <= 0 || id > math.MaxUint32 {
			it.err = errors.New("archive: frames payload has a malformed frame ID")
			return false
		}
		p = p[n:]
		if len(p) < 8 {
			it.err = errors.New("archive: frames payload truncated mid-frame")
			return false
		}
		prev += d
		t := time.Duration(prev)
		if t >= it.q.From && (it.q.To == 0 || t <= it.q.To) {
			var f can.Frame
			f.Time = t
			f.ID = uint32(id)
			copy(f.Data[:], p[:8])
			it.frames = append(it.frames, f)
		}
		p = p[8:]
	}
	if len(p) != 0 {
		it.err = fmt.Errorf("archive: frames payload carries %d trailing bytes", len(p))
		return false
	}
	if len(it.frames) == 0 {
		return false // whole run outside the window
	}
	it.rec.Frames = it.frames
	return true
}

// decodeWirePayload unwraps the embedded wire record (length prefix,
// type byte, payload) stored in event and verdict records.
func decodeWirePayload(p []byte) (wire.Record, error) {
	if len(p) < 5 {
		return nil, errors.New("archive: embedded wire record truncated")
	}
	n := binary.LittleEndian.Uint32(p[:4])
	if int(n) != len(p)-4 {
		return nil, fmt.Errorf("archive: embedded wire record declares %d bytes, carries %d", n, len(p)-4)
	}
	rec, err := wire.Decode(p[4], p[5:])
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	return rec, nil
}

// intern returns a shared string for a vehicle name, so iteration does
// not allocate one string per record.
func (it *Iterator) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := it.vehicles[string(b)]; ok { // no-alloc map lookup
		return s
	}
	s := string(b)
	it.vehicles[s] = s
	return s
}

// Record returns the current record. Valid after a true Next, until
// the next call to Next.
func (it *Iterator) Record() *Record { return &it.rec }

// Err returns the error that terminated iteration, if any.
func (it *Iterator) Err() error { return it.err }

// Pos returns the archive position iteration has reached: the
// sequence number of the last record read, matched or not, or the
// first sequence number of a segment being opened. After Next fails,
// it places Err in archive order — the record that failed to decode,
// or the first record of the segment that failed to open.
func (it *Iterator) Pos() uint64 { return it.pos }

// Close releases the iterator's open segment file. It is idempotent
// and safe to call mid-iteration — including right after a true Next,
// with the current Record still in hand; subsequent Next calls report
// false without disturbing Err.
func (it *Iterator) Close() error {
	it.closeSegment()
	it.done = true
	return nil
}
