package durable

import "cpsmon/internal/recordlog"

// fold is Open's read path without the file: it folds data into a
// State and returns the valid prefix length.
func fold(data []byte) (State, int64) {
	st := State{Sessions: make(map[uint64]*Session)}
	end := recordlog.Scan(data, minBody, maxBody, func(body []byte) bool {
		return foldRecord(&st, body[0], body[1:])
	})
	return st, end
}
