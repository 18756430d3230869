// Package recordlog is the repository's one CRC-framed record
// discipline and the append-only log built on it. The session ledger
// (internal/durable) and the spec registry (internal/specreg) are folds
// over a Log; the archive's segments (internal/archive) frame their
// records with the same Seal and Check.
//
// Every record is
//
//	u32 len | body | u32 CRC-32C(body)
//
// little-endian, where len counts the body plus its checksum. A log is
// read whole at Open: valid records are folded in order, and the file
// is truncated at the first record that fails to validate or to fold —
// the tear a crash mid-append leaves, or a tail that rotted. Appends
// then land on a clean record boundary.
package recordlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

// crcTable is the Castagnoli table, as the wire codec uses.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Seal completes a record built in rec: rec[:4] is a placeholder for
// the length and rec[4:] the body. It appends the body's checksum,
// fills in the length and returns the framed record.
func Seal(rec []byte) []byte {
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(rec[4:], crcTable))
	binary.LittleEndian.PutUint32(rec, uint32(len(rec)-4))
	return rec
}

// Check validates the bytes a length prefix counts — body then
// checksum — and returns the body.
func Check(framed []byte) (body []byte, ok bool) {
	if len(framed) < 4 {
		return nil, false
	}
	body = framed[:len(framed)-4]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(framed[len(body):]) {
		return nil, false
	}
	return body, true
}

// Scan folds the records of data in order, stopping at the first one
// whose length is outside [minBody, maxBody], whose checksum fails, or
// that fold rejects. It returns the length of the valid prefix.
func Scan(data []byte, minBody, maxBody int, fold func(body []byte) bool) int64 {
	at := 0
	for len(data)-at >= 4 {
		n := int64(binary.LittleEndian.Uint32(data[at:])) - 4
		if n < int64(minBody) || n > int64(maxBody) || n+8 > int64(len(data)-at) {
			break
		}
		body, ok := Check(data[at+4 : at+8+int(n)])
		if !ok || !fold(body) {
			break
		}
		at += 8 + int(n)
	}
	return int64(at)
}

// Log is an open record log positioned after its last valid record.
// It is not safe for concurrent use; owners serialize their calls.
type Log struct {
	f        *os.File
	min, max int
	buf      []byte
}

// Open reads the log at path (creating it if absent), folds every
// valid record through fold, and truncates the file at the first one
// that fails to validate or fold. It reports how many bytes it cut.
// minBody and maxBody bound a record body; Append enforces the same
// bounds, so the log never holds a record its own Open would cut.
func Open(path string, minBody, maxBody int, fold func(body []byte) bool) (*Log, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, 0, err
	}
	end := Scan(data, minBody, maxBody, fold)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, err
	}
	cut := int64(len(data)) - end
	if cut > 0 {
		if err := f.Truncate(end); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("truncating torn tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(end, 0); err != nil {
		f.Close()
		return nil, 0, err
	}
	return &Log{f: f, min: minBody, max: maxBody}, cut, nil
}

// Append frames body and writes it with a single Write, returning the
// framed size. A body outside the log's bounds is refused and nothing
// is written. Append does not sync; see Sync.
func (l *Log) Append(body []byte) (int, error) {
	if l.f == nil {
		return 0, errors.New("log closed")
	}
	if len(body) < l.min || len(body) > l.max {
		return 0, fmt.Errorf("record body of %d bytes outside [%d, %d]", len(body), l.min, l.max)
	}
	b := append(l.buf[:0], 0, 0, 0, 0)
	b = Seal(append(b, body...))
	l.buf = b[:0]
	return l.f.Write(b)
}

// Sync flushes appended records to stable storage.
func (l *Log) Sync() error {
	if l.f == nil {
		return nil
	}
	return l.f.Sync()
}

// Close closes the file without syncing; further appends fail.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
