package fleet

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"cpsmon/internal/can"
	"cpsmon/internal/flight"
	"cpsmon/internal/obs"
	"cpsmon/internal/wire"
)

// maxBatchFrames caps one frame batch record so it stays far under the
// wire protocol's record-size limit.
const maxBatchFrames = 4096

// replayWindow groups frames into batches spanning at most this much
// capture time during a paced replay.
const replayWindow = 100 * time.Millisecond

// Client defaults, overridable through Options.
const (
	defaultMaxRetries   = 5
	defaultBackoff      = 50 * time.Millisecond
	defaultMaxBackoff   = 2 * time.Second
	defaultReplayBuffer = 256
)

// Options configures a fleet client beyond the basic Dial arguments.
type Options struct {
	// Vehicle and Spec select the session identity and rule set, as
	// the Hello record.
	Vehicle, Spec string
	// OnEvent, when not nil, is invoked from the client's read
	// goroutine for every incremental event the server pushes
	// (violations and gap events); it must not block for long or the
	// event stream stalls. Across reconnects each event is delivered
	// exactly once, in order.
	OnEvent func(wire.Event)
	// Dial opens the transport; net.Dial("tcp", addr) when nil. Tests
	// substitute fault-injecting dialers here.
	Dial func(addr string) (net.Conn, error)
	// MaxRetries bounds reconnect attempts per recovery episode; the
	// default is 5. Negative disables reconnection entirely.
	MaxRetries int
	// Backoff is the initial reconnect delay (default 50ms), doubled
	// per failed attempt with jitter, capped at MaxBackoff (default
	// 2s).
	Backoff, MaxBackoff time.Duration
	// ReplayBuffer bounds unacknowledged batches held for replay
	// (default 256). Send blocks when the buffer is full, turning the
	// server's ack pace into end-to-end backpressure.
	ReplayBuffer int
	// Seed fixes the backoff jitter for deterministic tests; 0 draws
	// from the wall clock.
	Seed int64
	// StallTimeout, when positive, bounds how long the read loop waits
	// for the next server record before treating the stream as wedged
	// and reconnecting. A corrupted length prefix can leave either
	// side blocked mid-record forever; this (with the server's
	// IdleTimeout) restores liveness. Off by default — an idle client
	// legitimately hears nothing between uplink bursts.
	StallTimeout time.Duration
	// Metrics, when not nil, is the registry the client publishes its
	// recovery counters and replay-depth gauge on, labelled by
	// Vehicle. Nil selects a private registry — Stats() keeps working,
	// nothing is exported. One registry should back at most one client
	// per vehicle name: the replay-depth gauge is registered by series
	// and a second same-vehicle client would silently read the first's.
	Metrics *obs.Registry
	// Flight, when not nil, records sampled delivery spans — the time a
	// batch spends between Send and the server's cumulative ack covering
	// it — into the given flight recorder.
	Flight *flight.Recorder
}

// ClientStats counts a client's transport recovery activity.
type ClientStats struct {
	// Reconnects counts successful reattachments after a transport
	// failure; DialAttempts counts every dial, successful or not.
	Reconnects, DialAttempts uint64
	// DupEventsDropped counts replayed events discarded by sequence
	// dedup — deliveries that would have been duplicates.
	DupEventsDropped uint64
	// RecordsQuarantined counts malformed records skipped on the
	// event stream; the losses they hide are recovered by resume.
	RecordsQuarantined uint64
	// GapEvents counts gap-kind events received from the server.
	GapEvents uint64
}

// clientCounters is the client's recovery accounting, obs-backed like
// the server's so Stats() and a scraped /metrics can never disagree.
type clientCounters struct {
	reconnects, dialAttempts, dupEvents, quarantined, gaps *obs.Counter
}

// newClientCounters registers the client metric families on reg,
// labelled by vehicle, and a replay-depth gauge sampling depth.
func newClientCounters(reg *obs.Registry, vehicle string, depth func() float64) clientCounters {
	v := obs.Label{Name: "vehicle", Value: vehicle}
	c := func(name, help string) *obs.Counter { return reg.Counter(name, help, v) }
	reg.GaugeFunc("cpsmon_fleet_client_replay_depth",
		"Unacknowledged batches held for replay.", depth, v)
	return clientCounters{
		reconnects:   c("cpsmon_fleet_client_reconnects_total", "Successful reattachments after a transport failure."),
		dialAttempts: c("cpsmon_fleet_client_dial_attempts_total", "Dials attempted, successful or not."),
		dupEvents:    c("cpsmon_fleet_client_dup_events_dropped_total", "Replayed events discarded by sequence dedup."),
		quarantined:  c("cpsmon_fleet_client_records_quarantined_total", "Malformed records skipped on the event stream."),
		gaps:         c("cpsmon_fleet_client_gap_events_total", "Gap-kind events received from the server."),
	}
}

// errClientClosed reports an operation on a closed client.
var errClientClosed = errors.New("fleet: client closed")

// Client is the vehicle side of a fleet session: it uplinks captured
// frames to a monitord and surfaces the incremental oracle events the
// server pushes back. The client is chaos-hardened: it buffers
// unacknowledged batches, survives disconnects by resuming the
// server-side session with exponential backoff, and dedups both
// directions by sequence number, so every frame and every event counts
// exactly once end to end.
type Client struct {
	opts Options
	addr string

	// mu guards the connection/sequencing state below; cond signals
	// replay-buffer space and settlement. wmu serializes record writes
	// (never held together with mu).
	mu   sync.Mutex
	cond *sync.Cond
	wmu  sync.Mutex

	conn       net.Conn
	bw         *bufio.Writer
	readDone   chan struct{} // closed when the attachment's read loop exits
	gen        int           // attachment generation; bumped per successful (re)connect
	recovering bool
	closed     bool

	session      uint64
	token        uint64
	epoch        uint64          // server ledger epoch from the last grant
	nextSeq      uint64          // last batch sequence assigned
	acked        uint64          // highest cumulative ack from the server
	unacked      []wire.SeqBatch // [acked+1 .. nextSeq], pending replay
	lastEventSeq uint64
	finSent      bool
	finSeq       uint64

	// Flight-recorder state (nil/empty without Options.Flight).
	// sendTimes parallels unacked: the Send wall time of each pending
	// batch, so an ack can be turned into a delivery span.
	flt       *flight.Recorder
	fveh      flight.Ref
	sendTimes []time.Time

	// backoff is the next recovery episode's starting delay: inflated
	// by failed attempts, reset to Options.Backoff by a successful
	// resume handshake — a healthy transport earns the base interval
	// back.
	backoff time.Duration

	rng *rand.Rand // recovery-goroutine only (single-flight)

	// done closes when the session settles; verdict and readErr are
	// written before the close and may be read after it.
	done    chan struct{}
	settled sync.Once
	verdict *wire.Verdict
	readErr error

	stats clientCounters
}

// Dial connects to a fleet server with default options and performs
// the session handshake. onEvent, when not nil, is invoked from the
// client's read goroutine for every incremental event.
func Dial(addr, vehicle, spec string, onEvent func(wire.Event)) (*Client, error) {
	return DialOptions(addr, Options{Vehicle: vehicle, Spec: spec, OnEvent: onEvent})
}

// DialOptions connects with explicit options.
func DialOptions(addr string, o Options) (*Client, error) {
	if o.Dial == nil {
		o.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = defaultMaxRetries
	}
	if o.Backoff <= 0 {
		o.Backoff = defaultBackoff
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = defaultMaxBackoff
	}
	if o.ReplayBuffer <= 0 {
		o.ReplayBuffer = defaultReplayBuffer
	}
	seed := o.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	reg := o.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Client{
		opts:    o,
		addr:    addr,
		backoff: o.Backoff,
		rng:     rand.New(rand.NewSource(seed)),
		done:    make(chan struct{}),
		flt:     o.Flight,
	}
	if c.flt != nil {
		c.fveh = c.flt.Intern(o.Vehicle)
	}
	c.cond = sync.NewCond(&c.mu)
	c.stats = newClientCounters(reg, o.Vehicle, func() float64 {
		c.mu.Lock()
		n := len(c.unacked)
		c.mu.Unlock()
		return float64(n)
	})
	conn, br, err := c.handshake()
	if err != nil {
		return nil, err
	}
	c.conn = conn
	c.bw = bufio.NewWriterSize(conn, 64<<10)
	c.gen = 1
	c.readDone = make(chan struct{})
	go c.readLoop(conn, br, 1, c.readDone)
	return c, nil
}

// Session returns the server-assigned session identifier.
func (c *Client) Session() uint64 { return c.session }

// Stats snapshots the client's recovery counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Reconnects:         c.stats.reconnects.Value(),
		DialAttempts:       c.stats.dialAttempts.Value(),
		DupEventsDropped:   c.stats.dupEvents.Value(),
		RecordsQuarantined: c.stats.quarantined.Value(),
		GapEvents:          c.stats.gaps.Value(),
	}
}

// handshake dials and performs the Hello (first connection) or Resume
// (reconnection) exchange. On success the server's cumulative ack is
// already folded into the replay buffer.
func (c *Client) handshake() (net.Conn, *bufio.Reader, error) {
	c.stats.dialAttempts.Add(1)
	conn, err := c.opts.Dial(c.addr)
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: %w", err)
	}
	var open wire.Record
	c.mu.Lock()
	if c.token != 0 {
		open = wire.Resume{Version: wire.Version, Token: c.token, LastEventSeq: c.lastEventSeq, Epoch: c.epoch}
	} else {
		open = wire.Hello{Version: wire.Version, Vehicle: c.opts.Vehicle, Spec: c.opts.Spec}
	}
	c.mu.Unlock()
	if err := wire.Write(conn, open); err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("fleet: hello: %w", err)
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	rec, err := wire.Read(br)
	if err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("fleet: hello ack: %w", err)
	}
	conn.SetReadDeadline(time.Time{})
	switch rec := rec.(type) {
	case wire.SessionGrant:
		c.mu.Lock()
		c.session = rec.Session
		c.token = rec.Token
		c.epoch = rec.Epoch
		c.advanceAck(rec.AckSeq)
		c.mu.Unlock()
	case wire.Error:
		conn.Close()
		return nil, nil, rec.Err()
	default:
		conn.Close()
		return nil, nil, fmt.Errorf("fleet: hello ack: unexpected %T", rec)
	}
	return conn, br, nil
}

// terminal reports whether a connect/handshake error is a server
// refusal (an Error record) rather than a transport failure worth
// retrying.
func terminal(err error) bool { return errors.Is(err, wire.ErrRemote) }

// advanceAck folds a cumulative server ack into the replay buffer.
// Caller holds mu.
func (c *Client) advanceAck(seq uint64) {
	if seq <= c.acked {
		return
	}
	i := 0
	for i < len(c.unacked) && c.unacked[i].Seq <= seq {
		i++
	}
	if c.flt != nil && len(c.sendTimes) == len(c.unacked) {
		// Each newly acked batch is one sampling unit: the deliver span
		// covers Send to cumulative ack, round trips and replays included.
		now := time.Now()
		for j := 0; j < i; j++ {
			if c.flt.Sample() {
				c.flt.Record(c.session, c.fveh, flight.StageDeliver, 0,
					c.unacked[j].Seq, c.sendTimes[j], now.Sub(c.sendTimes[j]))
			}
		}
		c.sendTimes = append(c.sendTimes[:0], c.sendTimes[i:]...)
	}
	c.unacked = append(c.unacked[:0], c.unacked[i:]...)
	c.acked = seq
	c.cond.Broadcast()
}

// settle resolves the session exactly once.
func (c *Client) settle(v *wire.Verdict, err error) {
	c.settled.Do(func() {
		c.mu.Lock()
		c.verdict = v
		c.readErr = err
		c.mu.Unlock()
		close(c.done)
		c.cond.Broadcast()
	})
}

func (c *Client) isDone() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// readLoop receives server records for one attachment generation. It
// ends by settling the session (verdict, server error) or by kicking
// off a recovery after a transport failure.
func (c *Client) readLoop(conn net.Conn, br *bufio.Reader, gen int, rd chan struct{}) {
	defer close(rd)
	for {
		if c.opts.StallTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(c.opts.StallTimeout))
		}
		rec, err := wire.Read(br)
		if err != nil {
			var mal *wire.MalformedError
			if errors.As(err, &mal) {
				// The record boundary held: skip the corrupt record.
				// Any event it carried is recovered via the sequence
				// hole it leaves.
				c.stats.quarantined.Add(1)
				continue
			}
			if c.isDone() {
				return
			}
			go c.recover(gen)
			return
		}
		switch rec := rec.(type) {
		case wire.SeqEvent:
			c.mu.Lock()
			if rec.Seq <= c.lastEventSeq {
				c.mu.Unlock()
				c.stats.dupEvents.Add(1)
				continue
			}
			if rec.Seq != c.lastEventSeq+1 {
				// An event was lost (quarantined); resume to replay it.
				c.mu.Unlock()
				go c.recover(gen)
				return
			}
			c.lastEventSeq = rec.Seq
			c.mu.Unlock()
			if rec.Event.Kind == wire.EventGap {
				c.stats.gaps.Add(1)
			}
			if c.opts.OnEvent != nil {
				c.opts.OnEvent(rec.Event)
			}
		case wire.Ack:
			c.mu.Lock()
			c.advanceAck(rec.Seq)
			c.mu.Unlock()
		case wire.VerdictSeq:
			c.mu.Lock()
			complete := rec.EventSeq == c.lastEventSeq
			bw := c.bw
			c.mu.Unlock()
			if !complete {
				// Events are still missing; resume to fetch them, then
				// the server re-serves the verdict.
				go c.recover(gen)
				return
			}
			// Echo an ack so a draining server knows the verdict landed:
			// its own write succeeding proves nothing, since a dead TCP
			// peer still accepts one last segment. Best-effort — if this
			// write is lost the server parks us for the grace window,
			// which costs it patience, not correctness.
			c.wmu.Lock()
			if wire.Write(bw, wire.Ack{Seq: rec.EventSeq}) == nil {
				bw.Flush()
			}
			c.wmu.Unlock()
			v := rec.Verdict
			c.settle(&v, nil)
			return
		case wire.Error:
			c.settle(nil, rec.Err())
			return
		default:
			// Out of place on the downlink (corruption can flip a type
			// byte into another legal record): skip it like a malformed
			// one.
			c.stats.quarantined.Add(1)
		}
	}
}

// recover re-establishes the session after a transport failure:
// exponential backoff with jitter around redials, Resume handshake,
// then replay of every unacknowledged batch (the server dedups). It is
// single-flight per failure; stale generations return immediately.
func (c *Client) recover(gen int) {
	c.mu.Lock()
	if c.closed || c.recovering || gen != c.gen || c.isDone() {
		c.mu.Unlock()
		return
	}
	c.recovering = true
	conn := c.conn
	rd := c.readDone
	c.mu.Unlock()
	// Let the old read loop drain whatever the server managed to send
	// before the connection broke — a drained server delivers its
	// verdict right before closing, and closing our side first would
	// discard it. Then close and wait it out, so exactly one read loop
	// exists at a time.
	select {
	case <-rd:
	case <-time.After(100 * time.Millisecond):
	}
	conn.Close()
	<-rd
	if c.isDone() || c.clientClosed() {
		c.clearRecovering()
		return
	}

	// The starting delay persists across recovery episodes: repeated
	// failures keep inflating it, and only a successful handshake below
	// resets it to the base interval.
	c.mu.Lock()
	backoff := c.backoff
	c.mu.Unlock()
	var lastErr error = errors.New("no attempts made")
	for attempt := 0; attempt <= c.opts.MaxRetries; attempt++ {
		if c.isDone() || c.clientClosed() {
			c.clearRecovering()
			return
		}
		if attempt > 0 {
			// Full jitter: sleep a uniformly random fraction of the
			// doubling backoff, so a fleet of clients desynchronizes.
			d := backoff/2 + time.Duration(c.rng.Int63n(int64(backoff/2)+1))
			time.Sleep(d)
			backoff *= 2
			if backoff > c.opts.MaxBackoff {
				backoff = c.opts.MaxBackoff
			}
			c.mu.Lock()
			c.backoff = backoff
			c.mu.Unlock()
		}
		newConn, br, err := c.handshake()
		if err != nil {
			if terminal(err) {
				c.clearRecovering()
				c.settle(nil, err)
				return
			}
			lastErr = err
			continue
		}
		// Install the new attachment. wmu is taken before recovering
		// clears so no Send can write to the new connection until the
		// replay below has restored sequence order.
		c.wmu.Lock()
		c.mu.Lock()
		// The resume handshake succeeded: the transport is healthy
		// again, so the next episode starts from the base interval
		// instead of this one's inflated delay.
		c.backoff = c.opts.Backoff
		c.gen++
		newGen := c.gen
		c.conn = newConn
		c.bw = bufio.NewWriterSize(newConn, 64<<10)
		newRd := make(chan struct{})
		c.readDone = newRd
		replay := append([]wire.SeqBatch(nil), c.unacked...)
		finSent, finSeq := c.finSent, c.finSeq
		c.recovering = false
		c.cond.Broadcast()
		c.mu.Unlock()
		c.stats.reconnects.Add(1)
		go c.readLoop(newConn, br, newGen, newRd)

		ok := true
		for _, b := range replay {
			if wire.Write(c.bw, b) != nil {
				ok = false
				break
			}
		}
		if ok && finSent {
			ok = wire.Write(c.bw, wire.FinishSeq{Seq: finSeq}) == nil
		}
		if ok {
			ok = c.bw.Flush() == nil
		}
		c.wmu.Unlock()
		if !ok {
			// The fresh connection died mid-replay; its read loop (or
			// the next Send) observes the failure and recovers again.
			go c.recover(newGen)
		}
		return
	}
	c.clearRecovering()
	c.settle(nil, fmt.Errorf("fleet: reconnect failed after %d attempts: %w", c.opts.MaxRetries+1, lastErr))
}

func (c *Client) clearRecovering() {
	c.mu.Lock()
	c.recovering = false
	c.cond.Broadcast()
	c.mu.Unlock()
}

func (c *Client) clientClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Send uplinks a run of frames, splitting it into batch records as
// needed. Frames must be in non-decreasing time order across all Send
// calls; stale frames are rejected (and accounted) server-side.
//
// Send succeeds once the batch is buffered for replay: transport
// failures are recovered in the background and the batch is
// retransmitted, deduplicated server-side. Send blocks while the replay
// buffer is full (backpressure) and only errors when the session has
// ended.
func (c *Client) Send(frames []can.Frame) error {
	for len(frames) > 0 {
		n := len(frames)
		if n > maxBatchFrames {
			n = maxBatchFrames
		}
		c.mu.Lock()
		for len(c.unacked) >= c.opts.ReplayBuffer && !c.closed && !c.isDone() {
			c.cond.Wait()
		}
		if c.closed || c.isDone() {
			c.mu.Unlock()
			return c.endError()
		}
		c.nextSeq++
		b := wire.SeqBatch{Seq: c.nextSeq, Frames: frames[:n]}
		c.unacked = append(c.unacked, b)
		if c.flt != nil {
			c.sendTimes = append(c.sendTimes, time.Now())
		}
		gen, bw, recovering := c.gen, c.bw, c.recovering
		c.mu.Unlock()
		frames = frames[n:]
		if recovering {
			// The recovery's replay pass will transmit this batch.
			continue
		}
		c.wmu.Lock()
		err := wire.Write(bw, b)
		if err == nil {
			err = bw.Flush()
		}
		c.wmu.Unlock()
		if err != nil {
			go c.recover(gen)
		}
	}
	return nil
}

// endError reports why the session can take no more input.
func (c *Client) endError() error {
	if c.isDone() {
		if c.readErr != nil {
			return c.readErr
		}
		return errors.New("fleet: session already ended")
	}
	return errClientClosed
}

// Finish declares end-of-stream and waits for the server's verdict.
func (c *Client) Finish() (*wire.Verdict, error) {
	c.mu.Lock()
	c.finSent = true
	c.finSeq = c.nextSeq
	fin := wire.FinishSeq{Seq: c.finSeq}
	gen, bw, recovering := c.gen, c.bw, c.recovering
	c.mu.Unlock()
	if !recovering {
		c.wmu.Lock()
		err := wire.Write(bw, fin)
		if err == nil {
			err = bw.Flush()
		}
		c.wmu.Unlock()
		if err != nil {
			go c.recover(gen)
		}
	}
	return c.Wait()
}

// sessionOutcome resolves a mid-stream write failure. A write error
// usually means the server already ended the session on purpose — a
// graceful drain closes the connection right after delivering a
// partial Verdict, and a protocol refusal after an Error record — so
// whatever the read loop collected supersedes the local broken-pipe
// noise. Only if the session ended with neither does the write error
// itself surface.
func (c *Client) sessionOutcome(writeErr error) (*wire.Verdict, error) {
	select {
	case <-c.done:
	case <-time.After(handshakeTimeout):
		return nil, writeErr
	}
	if c.verdict != nil {
		return c.verdict, nil
	}
	if c.readErr != nil {
		return nil, c.readErr
	}
	return nil, writeErr
}

// Wait blocks until the session ends and returns the verdict, if one
// arrived. It is the right call after a drain-on-shutdown, where the
// server verdicts the session without a client Finish.
func (c *Client) Wait() (*wire.Verdict, error) {
	<-c.done
	if c.verdict != nil {
		return c.verdict, nil
	}
	if c.readErr != nil {
		return nil, c.readErr
	}
	return nil, errors.New("fleet: session closed without a verdict")
}

// Close tears the connection down and stops any reconnection. A
// session still streaming appears to the server as an unclean
// disconnect (which parks it for the resume grace window before it is
// reaped).
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	conn := c.conn
	c.cond.Broadcast()
	c.mu.Unlock()
	err := conn.Close()
	c.settle(c.verdictSnapshot(), nil)
	<-c.done
	return err
}

// verdictSnapshot returns the settled verdict if one already arrived
// (settle keeps the first outcome, so this only matters when Close
// races an unsettled session).
func (c *Client) verdictSnapshot() *wire.Verdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.verdict
}

// Replay uplinks a recorded bus log and returns the verdict. speed
// scales capture time to wall time: 1 replays in real time, 2 at
// double speed, and 0 (or negative) streams as fast as the connection
// and the server's backpressure allow. Frames are batched in capture
// windows so a paced replay delivers them with their original rhythm.
// If the server drains mid-replay (shutdown), Replay returns the
// partial verdict it delivered; compare Verdict.FramesIngested with
// the log length to detect the truncation.
func (c *Client) Replay(log *can.Log, speed float64) (*wire.Verdict, error) {
	frames := log.Frames()
	start := time.Now()
	for i := 0; i < len(frames); {
		j := i + 1
		window := frames[i].Time + replayWindow
		for j < len(frames) && frames[j].Time < window && j-i < maxBatchFrames {
			j++
		}
		if speed > 0 {
			due := start.Add(time.Duration(float64(frames[i].Time) / speed))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		}
		if err := c.Send(frames[i:j]); err != nil {
			return c.sessionOutcome(err)
		}
		i = j
	}
	return c.Finish()
}
