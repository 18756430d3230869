package archive

import (
	"runtime"
	"sync"

	"cpsmon/internal/can"
)

// ScanOptions configure a parallel catalog scan.
type ScanOptions struct {
	// Workers bounds how many segments are decoded concurrently;
	// 0 means GOMAXPROCS.
	Workers int
	// Ahead bounds how many decoded segments may be buffered in front
	// of the consumer (the prefetch window); 0 means 2×Workers. A
	// larger window hides decode latency spikes at the cost of memory.
	Ahead int
}

// scanChunk holds one fully decoded segment: the records in archive
// order, their frames copied into the chunk's frame arena (iterator
// scratch does not survive a goroutine hop), and the error that stopped
// the decode, if any.
type scanChunk struct {
	recs []Record
	// slabs is the frame arena: fixed-size slabs filled in order, cur
	// the one being filled (-1 before the first record). They are
	// recycled with the chunk.
	slabs [][]can.Frame
	cur   int
	err   error
}

// slabFrames is the frame capacity of one arena slab. A record's frames
// are copied into one slab, so no slab is ever regrown, and a chunk
// holds at most one slab more than its frames need, beside the tails
// left where a record did not fit.
const slabFrames = 4096

// reset empties the chunk for the next segment, keeping its slabs.
func (ch *scanChunk) reset() {
	ch.recs, ch.err, ch.cur = ch.recs[:0], nil, -1
	for i := range ch.slabs {
		ch.slabs[i] = ch.slabs[i][:0]
	}
}

// copyFrames copies one record's frames into the arena and returns the
// copy: the rest of the slab being filled when they fit, otherwise the
// next slab, recycled or new. A record longer than a slab gets an
// array of its own, which is not recycled.
func (ch *scanChunk) copyFrames(src []can.Frame) []can.Frame {
	if len(src) > slabFrames {
		return append([]can.Frame(nil), src...)
	}
	if ch.cur < 0 || cap(ch.slabs[ch.cur])-len(ch.slabs[ch.cur]) < len(src) {
		ch.cur++
		if ch.cur == len(ch.slabs) {
			ch.slabs = append(ch.slabs, make([]can.Frame, 0, slabFrames))
		}
	}
	slab := ch.slabs[ch.cur]
	start := len(slab)
	slab = append(slab, src...)
	ch.slabs[ch.cur] = slab
	return slab[start:len(slab):len(slab)]
}

// ParallelIterator walks a catalog's records in archive order — the
// same order Catalog.Iter yields them — while decoding up to
// ScanOptions.Workers segments concurrently and prefetching up to
// ScanOptions.Ahead segments in front of the consumer.
//
// Ordering: segments are delivered strictly in segment order and each
// segment's records in offset order, so the global sequence order (and
// in particular the per-session record order) is identical to the
// sequential iterator's.
//
// A ParallelIterator is for a single consuming goroutine: Next,
// Record, Err and Close must not be called concurrently with each
// other. Close is idempotent and safe to call mid-iteration; the
// worker goroutines are reaped before it returns.
type ParallelIterator struct {
	q       Query
	results []chan *scanChunk
	tokens  chan struct{}
	cancel  chan struct{}
	once    sync.Once
	wg      sync.WaitGroup
	// free recycles consumed chunks to the decode workers. It is owned
	// by the iterator, so its arenas die with it: a sync.Pool stays
	// registered with the runtime and would keep every finished
	// iterator's arenas reachable until the next two collections.
	free chan *scanChunk

	cur     *scanChunk
	curIdx  int
	nextIdx int
	rec     *Record
	err     error
	done    bool
}

// ParallelIter starts a query that decodes segments on a worker pool.
// The result stream is byte-for-byte the one Iter produces; only the
// wall-clock differs. Close the iterator when done with it — also on
// early exit, or the workers leak.
func (c *Catalog) ParallelIter(q Query, opt ScanOptions) *ParallelIterator {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	eligible := make([]segment, 0, len(c.segs))
	for _, seg := range c.segs {
		if !q.skipsSegment(seg.info) {
			eligible = append(eligible, seg)
		}
	}
	if workers > len(eligible) {
		workers = len(eligible)
	}
	ahead := opt.Ahead
	if ahead <= 0 {
		ahead = 2 * workers
	}
	if ahead < workers {
		ahead = workers
	}

	p := &ParallelIterator{
		q:       q,
		results: make([]chan *scanChunk, len(eligible)),
		tokens:  make(chan struct{}, ahead),
		cancel:  make(chan struct{}),
		// At most ahead chunks are out at once, one per token.
		free: make(chan *scanChunk, ahead),
	}
	for i := range p.results {
		// Capacity one and exactly one send per index: workers never
		// block delivering a result, so Close cannot strand them.
		p.results[i] = make(chan *scanChunk, 1)
	}

	jobs := make(chan int)
	p.wg.Add(1)
	go func() { // feeder: admits one segment per prefetch token
		defer p.wg.Done()
		defer close(jobs)
		for i := range eligible {
			select {
			case p.tokens <- struct{}{}:
			case <-p.cancel:
				return
			}
			select {
			case jobs <- i:
			case <-p.cancel:
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			it := &Iterator{vehicles: make(map[string]string)}
			for {
				select {
				case i, ok := <-jobs:
					if !ok {
						return
					}
					p.results[i] <- p.decodeSegment(it, eligible[i])
				case <-p.cancel:
					return
				}
			}
		}()
	}
	return p
}

// decodeSegment replays one segment through a worker-owned sequential
// iterator, copying every record (and its frames, which are iterator
// scratch) into a recycled chunk. The frame arena grows a slab at a
// time as the segment needs, so it is sized by the frames decoded, not
// by a guess from the segment's bytes.
func (p *ParallelIterator) decodeSegment(it *Iterator, seg segment) *scanChunk {
	var ch *scanChunk
	select {
	case ch = <-p.free:
	default:
		ch = new(scanChunk)
	}
	ch.reset()
	it.reset(seg, p.q)
	for it.Next() {
		rec := *it.Record()
		if len(rec.Frames) > 0 {
			rec.Frames = ch.copyFrames(rec.Frames)
		}
		ch.recs = append(ch.recs, rec)
	}
	ch.err = it.Err()
	it.closeSegment()
	return ch
}

// Next advances to the next matching record, reporting false at the
// end of the archive or on error (distinguish with Err). Records
// decoded before a mid-segment error are yielded first, exactly as the
// sequential iterator serves them.
func (p *ParallelIterator) Next() bool {
	if p.done || p.err != nil {
		return false
	}
	for {
		if p.cur != nil && p.curIdx < len(p.cur.recs) {
			p.rec = &p.cur.recs[p.curIdx]
			p.curIdx++
			return true
		}
		if p.cur != nil {
			if err := p.cur.err; err != nil {
				p.err = err
				p.done = true
				return false
			}
			select {
			case p.free <- p.cur:
			default:
			}
			p.cur = nil
			<-p.tokens // chunk consumed: admit another segment
		}
		if p.nextIdx >= len(p.results) {
			p.done = true
			return false
		}
		select {
		case p.cur = <-p.results[p.nextIdx]:
			p.nextIdx++
			p.curIdx = 0
		case <-p.cancel:
			p.done = true
			return false
		}
	}
}

// Record returns the current record. Valid after a true Next, until
// the next call to Next.
func (p *ParallelIterator) Record() *Record { return p.rec }

// Err returns the error that terminated iteration, if any.
func (p *ParallelIterator) Err() error { return p.err }

// Close stops the scan and reaps the worker goroutines. It is
// idempotent and safe to call mid-iteration; subsequent Next calls
// report false.
func (p *ParallelIterator) Close() error {
	p.once.Do(func() { close(p.cancel) })
	p.wg.Wait()
	p.done = true
	return nil
}
