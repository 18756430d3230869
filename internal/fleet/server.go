// Package fleet is the networked ingest tier of the monitor: a TCP
// server that runs one streaming oracle session per connected vehicle.
//
// The paper ran its monitor offline over recorded bus captures, noting
// that "there is no fundamental reason the monitoring could not be done
// at runtime". core.OnlineMonitor realizes the runtime path for a
// single in-process trace; this package scales it out: fleets of
// vehicles uplink their CAN captures over the wire protocol
// (internal/wire) and each connection gets its own isolated monitor
// session, a bounded ingest queue with explicit backpressure or drop
// accounting, and incremental violation events pushed back as they
// become decidable. The server produces byte-for-byte the same
// violations as the offline CheckLog over the same frames.
//
// Session lifecycle (see DESIGN.md for the wire layouts):
//
//	accepted → awaiting-hello → streaming ⇄ parked → draining → closed
//
// A session survives its TCP connection: frames arrive as
// sequence-numbered, checksummed batches which the server acknowledges
// cumulatively; a lost connection parks the session — monitor state
// intact, keyed by a resume token — for a grace window, and a Resume
// handshake reattaches it, replaying unseen events and telling the
// client where to retransmit from. Malformed and out-of-place records
// are quarantined against a per-session error budget instead of killing
// the session, and load shedding or bus silence surfaces as explicit
// gap events.
//
// A session drains — evaluates everything queued, closes the monitor,
// and reports a Verdict — on two paths: the client's FinishSeq record
// or server shutdown.
package fleet

import (
	"bufio"
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cpsmon/internal/core"
	"cpsmon/internal/flight"
	"cpsmon/internal/obs"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/speclang"
	"cpsmon/internal/wire"
)

// SpecResolver maps a Hello record's spec selection to a compiled rule
// set. The empty name selects the deployment's default rule set.
type SpecResolver func(name string) (*speclang.RuleSet, error)

// Config assembles a fleet ingest server.
type Config struct {
	// DB is the signal database every session decodes frames with;
	// required. It must not be mutated while the server runs.
	DB *sigdb.DB
	// Resolve maps spec selections to rule sets; required. It is
	// called at most once per distinct spec name (results are cached).
	Resolve SpecResolver
	// Period is the evaluation grid step; zero selects the core
	// default (the network's fast frame period).
	Period time.Duration
	// DeltaMode selects multi-rate difference semantics.
	DeltaMode speclang.DeltaMode
	// Triage maps rule names to triage thresholds, as core.Config.
	Triage map[string]core.Triage
	// MaxSessions caps concurrently active sessions; connections over
	// the cap are refused with a wire Error. Zero means unlimited.
	MaxSessions int
	// QueueDepth is the per-session frame-queue capacity in batches.
	// Zero selects the default (64).
	QueueDepth int
	// DropWhenFull selects load-shedding: a batch arriving at a full
	// queue is dropped (and accounted) instead of blocking the
	// connection. Off by default: backpressure propagates to the
	// client through TCP, preserving completeness.
	DropWhenFull bool
	// ErrorBudget bounds malformed records quarantined per attachment
	// before the connection is cut (the session parks for resume). Zero
	// selects the default (16).
	ErrorBudget int
	// ResumeGrace is how long a detached session's monitor state is
	// retained awaiting a Resume before it is reaped. Zero selects the
	// default (30s).
	ResumeGrace time.Duration
	// IdleTimeout cuts a connection that produced no record for this
	// long; the session then parks for resume.
	// Zero disables the timeout.
	IdleTimeout time.Duration
	// SilenceGap, when positive, makes sessions emit a gap event
	// whenever consecutive frame timestamps are further apart than
	// this — the bus went quiet or the capture has a hole.
	SilenceGap time.Duration
	// Metrics, when not nil, is the registry the server publishes its
	// operational counters, per-spec monitor metrics and session
	// gauges on. Nil selects a private registry — Stats() keeps
	// working, the metrics are simply not exported anywhere. One
	// registry should back at most one server: the session gauges are
	// registered by name and a second server would silently read the
	// first's.
	Metrics *obs.Registry
	// OnEvent, when not nil, is invoked from session worker goroutines
	// exactly once per event the server produces (violation begins,
	// ends and gaps) — resume replays and verdict re-deliveries do not
	// repeat it. It must not block; the verdict journal is the
	// intended consumer.
	OnEvent func(session uint64, vehicle string, e wire.Event)
	// OnVerdict, when not nil, is invoked exactly once per session
	// verdict, when the verdict is built (delivery may still be
	// retried). Sessions reaped without a verdict never invoke it.
	OnVerdict func(session uint64, vehicle string, v wire.Verdict)
	// Archiver, when not nil, receives every applied frame run, every
	// emitted event and every verdict through a bounded queue drained
	// by a dedicated goroutine. Frames and events are shed (and
	// counted dropped) when the queue is full — unless
	// ArchiveBackpressure is set — while verdicts never are.
	// Shutdown drains the queue and flushes the Archiver before
	// returning; closing the Archiver itself stays the caller's job.
	Archiver Archiver
	// ArchiveQueue is the archive queue capacity in items. Zero
	// selects the default (256).
	ArchiveQueue int
	// ArchiveBackpressure makes the archive lossless without crash
	// safety: a session worker blocks on a full archive queue instead
	// of shedding, so the archive is a complete record of every
	// applied frame run and event at the cost of coupling ingest to
	// archive I/O. Implied (and forced) by Ledger.
	ArchiveBackpressure bool
	// Ledger, when not nil, makes the server crash-safe: every
	// session grant, acknowledged watermark and verdict is recorded
	// durably before the protocol message that promises it (see the
	// Ledger interface for the ordering contract), and NewRestorer can
	// rebuild ledgered sessions from the archive after a restart.
	// Requires Archiver; incompatible with DropWhenFull, whose
	// shed-batch gap events cannot be rebuilt from archived frames.
	// With a Ledger attached, frame runs and events are never shed at
	// the archive queue — the enqueue blocks instead.
	Ledger Ledger
	// Epoch identifies this server process's ledger generation. It is
	// carried on every SessionGrant; a Resume bearing an epoch larger
	// than the server's own is refused as stale in-flight state (the
	// client talked to a future ledger this process has lost).
	Epoch uint64
	// SessionBase offsets session IDs: the first session is granted
	// SessionBase+1. A restarted server passes the highest ID its
	// ledger ever recorded, so new and recovered sessions never collide
	// in the archive or the ledger.
	SessionBase uint64
	// WatermarkInterval is the ledger group-commit cadence: how often a
	// session's applied progress is made durable (archive barrier +
	// watermark) and acknowledged to the client. Batches apply and
	// their events stream immediately regardless; only the Ack waits
	// for the covering watermark. Zero selects the default (100ms);
	// only consulted when a Ledger is attached.
	WatermarkInterval time.Duration
	// SpecEpoch is the spec generation the server's default rule set
	// starts at. Default-spec sessions stamp the active epoch into
	// their verdicts; a live promote (PromoteShadow) advances it.
	// Sessions selecting a named spec carry epoch zero — the epoch
	// tracks the deployment's default spec lineage only.
	SpecEpoch uint64
	// Flight, when not nil, is the sampled latency flight recorder the
	// server traces batch stages into: queue wait, decode, rule
	// evaluation, event emission, archive writes and ledger syncs. It
	// also enables the per-vehicle end-to-end latency histograms on the
	// server registry. The sampling cost on an unsampled batch is one
	// atomic increment; see internal/flight.
	Flight *flight.Recorder
	// SLO, when not nil, tracks the detection-latency objective: every
	// batch's end-to-end latency is classified good or bad against the
	// SLO target, and the rolling-window burn rate is exported as
	// gauges (and, via monitord, in the /healthz degraded state).
	SLO *flight.SLO
}

const (
	defaultQueueDepth        = 64
	defaultArchiveQueue      = 256
	defaultErrorBudget       = 16
	defaultResumeGrace       = 30 * time.Second
	defaultWatermarkInterval = 100 * time.Millisecond
	// commitBatches is how much applied-but-unledgered progress a
	// drained session queue triggers a group commit at. It must stay
	// well below the client's default replay buffer (256 batches): a
	// client stalls only with a full buffer, which always exceeds this
	// threshold, so the stall is broken by the dry-queue commit rather
	// than the watermark timer.
	commitBatches     = 32
	handshakeTimeout  = 10 * time.Second
	claimTimeout      = 3 * time.Second
	verdictAckTimeout = 2 * time.Second
	numShards         = 16
)

// shard is one slice of the session table. Sessions register on the
// shard keyed by their ID so that registration, deregistration and the
// shutdown sweep never contend on a single lock.
type shard struct {
	mu       sync.Mutex
	sessions map[uint64]*session
}

// specEntry is a resolved spec: the shared immutable monitor, the rule
// order for verdict records, the monitor metrics every session of this
// spec aggregates into, and the flight refs for per-rule eval spans
// (interned once at spec compile, nil without a recorder).
type specEntry struct {
	mon    *core.Monitor
	rules  []string
	met    *core.Metrics
	frules []flight.Ref
}

// parked is one detached session awaiting resume, with the grace
// timer that reaps it.
type parked struct {
	sess  *session
	timer *time.Timer
}

// Server is the fleet ingest daemon: one monitor session per connected
// vehicle.
type Server struct {
	cfg Config

	ctx    context.Context
	cancel context.CancelFunc

	ln     net.Listener
	lnMu   sync.Mutex
	closed atomic.Bool

	wg     sync.WaitGroup // one per connection goroutine
	nextID atomic.Uint64
	active atomic.Int64

	shards [numShards]shard

	// parkMu guards the resume tables: attached sessions by token
	// (for force-detach on a racing resume) and parked sessions by
	// token (for claim and reap).
	parkMu   sync.Mutex
	attached map[uint64]*session
	parkedBy map[uint64]*parked

	// specMu guards the resolved-spec cache and the active epoch: a
	// promote replaces the default entry and advances the epoch in one
	// critical section, so a concurrent Hello can never pair the old
	// spec with the new epoch.
	specMu      sync.Mutex
	specs       map[string]*specEntry
	activeEpoch uint64

	// rollout publishes the current shadow/promote state; rolloutGen
	// tells session workers (one atomic load per batch) that it moved.
	// rolloutMu serializes the Begin/Abort/Promote transitions (readers
	// never take it). shadowSessions counts sessions currently
	// dual-evaluating.
	rolloutMu      sync.Mutex
	rollout        atomic.Pointer[rolloutState]
	rolloutGen     atomic.Uint64
	shadowSessions atomic.Int64

	reg   *obs.Registry
	stats counters

	// arch is the archive pump, nil when no Archiver is configured.
	arch *archivePump
}

// NewServer validates the configuration and builds a server. Call
// Listen (or Serve with your own listener) to start accepting.
func NewServer(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("fleet: config requires DB")
	}
	if cfg.Resolve == nil {
		return nil, errors.New("fleet: config requires Resolve")
	}
	if cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("fleet: negative queue depth %d", cfg.QueueDepth)
	}
	if cfg.Ledger != nil {
		if cfg.Archiver == nil {
			return nil, errors.New("fleet: Ledger requires an Archiver (recovery rebuilds sessions from archived frames)")
		}
		if cfg.DropWhenFull {
			return nil, errors.New("fleet: Ledger is incompatible with DropWhenFull (shed batches cannot be rebuilt from the archive)")
		}
		cfg.ArchiveBackpressure = true
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = defaultQueueDepth
	}
	if cfg.ResumeGrace == 0 {
		cfg.ResumeGrace = defaultResumeGrace
	}
	if cfg.WatermarkInterval <= 0 {
		cfg.WatermarkInterval = defaultWatermarkInterval
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		ctx:      ctx,
		cancel:   cancel,
		specs:    make(map[string]*specEntry),
		attached: make(map[uint64]*session),
		parkedBy: make(map[uint64]*parked),
		reg:      reg,
		stats:    newCounters(reg),
	}
	for i := range s.shards {
		s.shards[i].sessions = make(map[uint64]*session)
	}
	s.nextID.Store(cfg.SessionBase)
	s.activeEpoch = cfg.SpecEpoch
	reg.GaugeFunc("cpsmon_shadow_sessions", "Sessions currently shadow-evaluating a candidate spec.",
		func() float64 { return float64(s.shadowSessions.Load()) })
	reg.GaugeFunc("cpsmon_fleet_sessions_active", "Sessions currently accepted and not yet resolved.",
		func() float64 {
			opened, closed := s.stats.sessionsOpened.Value(), s.stats.sessionsClosed.Value()
			if opened <= closed {
				return 0
			}
			return float64(opened - closed)
		})
	reg.GaugeFunc("cpsmon_fleet_sessions_parked", "Detached sessions awaiting resume.",
		func() float64 {
			s.parkMu.Lock()
			n := len(s.parkedBy)
			s.parkMu.Unlock()
			return float64(n)
		})
	if cfg.Archiver != nil {
		depth := cfg.ArchiveQueue
		if depth <= 0 {
			depth = defaultArchiveQueue
		}
		s.arch = newArchivePump(s, cfg.Archiver, depth)
		reg.GaugeFunc("cpsmon_fleet_archive_queue_depth", "Archive items waiting in the pump queue.",
			func() float64 { return float64(len(s.arch.ch)) })
	}
	registerFlightMetrics(reg, cfg.Flight, cfg.SLO)
	return s, nil
}

// Registry returns the server's metrics registry — the one passed via
// Config.Metrics, or the private one created in its absence.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Listen binds addr and starts serving in the background. Use Addr to
// learn the bound address (handy with a ":0" port).
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop(ln)
	}()
	return nil
}

// Serve accepts sessions on ln until the listener closes or the server
// shuts down. It blocks; the returned error is nil on clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	s.acceptLoop(ln)
	return nil
}

// Addr returns the listening address, or nil before Listen/Serve.
func (s *Server) Addr() net.Addr {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			// Listener closed (shutdown) or fatal accept error.
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// Shutdown stops accepting new sessions and drains: attached sessions
// evaluate what is queued, close their monitors and deliver verdicts;
// parked sessions get the remainder of the drain window to resume (the
// listener stays open for Resume handshakes) and drain in turn. It
// waits for completion or ctx expiry, whichever is first; on expiry
// remaining connections are force-closed and parked sessions reaped.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.closed.Swap(true) {
		return errors.New("fleet: Shutdown called twice")
	}
	s.cancel()
	// Unblock readers parked in wire.Read so they notice the cancelled
	// context and enter the drain path. Repeated below for sessions
	// that resume mid-drain. Only streaming readers are nudged: once a
	// session drains, its connection belongs to the verdict-ack wait,
	// which sets its own deadline.
	s.sweep(nudgeStreaming)

	var err error
	for s.active.Load() != 0 || s.awaitedParked() != 0 {
		if ctx.Err() != nil {
			s.sweep(func(sess *session) { sess.conn.Close() })
			err = fmt.Errorf("fleet: shutdown deadline exceeded, sessions force-closed: %w", ctx.Err())
			break
		}
		time.Sleep(2 * time.Millisecond)
		s.sweep(nudgeStreaming)
	}

	s.lnMu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.lnMu.Unlock()
	s.reapAll()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(100 * time.Millisecond):
		s.sweep(func(sess *session) { sess.conn.Close() })
		<-done
	}
	if s.arch != nil {
		// Every producer goroutine is down; drain the archive queue and
		// flush the Archiver so no tail record is left in flight.
		s.arch.stop()
	}
	return err
}

// awaitedParked counts parked sessions the drain must wait for: those
// still owed a verdict, and those whose verdict never reached the
// client (the resume fetches it). Their grace timers keep running, so
// the wait is bounded by the resume grace even if the client is gone.
func (s *Server) awaitedParked() int {
	s.parkMu.Lock()
	defer s.parkMu.Unlock()
	n := 0
	for _, p := range s.parkedBy {
		if !p.sess.finalized {
			// With a ledger the session is preserved across the restart
			// and this process will never finalize it — waiting would
			// only stall the drain.
			if s.cfg.Ledger == nil {
				n++
			}
			continue
		}
		if !p.sess.delivered {
			n++
		}
	}
	return n
}

// nudgeStreaming expires a streaming reader's blocking Read so it
// notices the cancelled context.
func nudgeStreaming(sess *session) {
	if sess.state.Load() == stateStreaming {
		sess.conn.SetReadDeadline(time.Now())
	}
}

// sweep applies fn to every attached session.
func (s *Server) sweep(fn func(*session)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, sess := range sh.sessions {
			fn(sess)
		}
		sh.mu.Unlock()
	}
}

func (s *Server) register(sess *session) {
	sh := &s.shards[sess.id%numShards]
	sh.mu.Lock()
	sh.sessions[sess.id] = sess
	sh.mu.Unlock()
	s.parkMu.Lock()
	s.attached[sess.token] = sess
	s.parkMu.Unlock()
}

// unregister detaches the session from the live tables and, when park
// is true, parks it for resume in the same critical section (so a
// racing claim never finds the token in neither table).
func (s *Server) unregister(sess *session, park bool) {
	sh := &s.shards[sess.id%numShards]
	sh.mu.Lock()
	delete(sh.sessions, sess.id)
	sh.mu.Unlock()
	s.parkMu.Lock()
	delete(s.attached, sess.token)
	// During a drain only sessions owed a verdict delivery may park;
	// run() applies the same rule, this re-check closes the race with a
	// Shutdown that started in between.
	if park && (!s.closed.Load() || !sess.finalized || !sess.delivered) {
		p := &parked{sess: sess}
		p.timer = time.AfterFunc(s.cfg.ResumeGrace, func() { s.reap(sess.token) })
		s.parkedBy[sess.token] = p
		s.parkMu.Unlock()
		return
	}
	s.parkMu.Unlock()
	if park {
		// Shutdown raced the park: resolve the session here instead.
		s.discard(sess)
	}
}

// claim removes the parked session for token and returns it. If the
// token is still attached — the client saw a disconnect the server has
// not noticed yet — the stale attachment is force-closed and claim
// waits for it to park.
func (s *Server) claim(token uint64) *session {
	deadline := time.Now().Add(claimTimeout)
	for {
		s.parkMu.Lock()
		if p, ok := s.parkedBy[token]; ok {
			delete(s.parkedBy, token)
			p.timer.Stop()
			s.parkMu.Unlock()
			return p.sess
		}
		act := s.attached[token]
		s.parkMu.Unlock()
		if act == nil || time.Now().After(deadline) {
			return nil
		}
		act.conn.Close()
		time.Sleep(2 * time.Millisecond)
	}
}

// reap resolves a parked session whose grace window expired.
func (s *Server) reap(token uint64) {
	s.parkMu.Lock()
	p, ok := s.parkedBy[token]
	if ok {
		delete(s.parkedBy, token)
	}
	s.parkMu.Unlock()
	if ok {
		s.discard(p.sess)
	}
}

// reapAll discards every parked session (shutdown).
func (s *Server) reapAll() {
	s.parkMu.Lock()
	ps := make([]*parked, 0, len(s.parkedBy))
	for _, p := range s.parkedBy {
		ps = append(ps, p)
	}
	s.parkedBy = make(map[uint64]*parked)
	s.parkMu.Unlock()
	for _, p := range ps {
		p.timer.Stop()
		s.discard(p.sess)
	}
}

// discard resolves a detached session that will never resume *in this
// process*. A finalized session was already counted when its verdict
// was built; an unfinalized one is reaped — its monitor closed
// quietly. With a ledger attached, the closure is recorded so recovery
// skips the session — except during shutdown, when a session still
// owed its verdict delivery is deliberately left open in the ledger:
// its in-memory monitor dies with the process, but the next process
// rebuilds it from the archive and the client's resume still succeeds.
func (s *Server) discard(sess *session) {
	if sess.shadow != nil {
		// The worker is gone (only parked/reaped sessions are
		// discarded), so the shadow is ours to release.
		sess.dropShadow()
	}
	if s.cfg.Ledger != nil && s.closed.Load() && (!sess.finalized || !sess.delivered) {
		if !sess.finalized {
			sess.finalized = true
			sess.om.Close()
			s.stats.sessionsReaped.Add(1)
			s.stats.sessionsClosed.Add(1)
		}
		return
	}
	s.logClosed(sess)
	if sess.finalized {
		return
	}
	sess.finalized = true
	sess.om.Close()
	s.stats.sessionsReaped.Add(1)
	s.stats.sessionsClosed.Add(1)
}

// spec resolves and caches one spec selection.
func (s *Server) spec(name string) (*specEntry, error) {
	e, _, err := s.specFor(name)
	return e, err
}

// specFor resolves a spec selection together with the epoch stamp its
// sessions carry, in one specMu critical section — so a Hello racing a
// promote gets either (old spec, old epoch) or (new spec, new epoch),
// never a mixture. Named specs are outside the default lineage and
// stamp zero.
func (s *Server) specFor(name string) (*specEntry, uint64, error) {
	s.specMu.Lock()
	defer s.specMu.Unlock()
	epoch := uint64(0)
	if name == "" {
		epoch = s.activeEpoch
	}
	if e, ok := s.specs[name]; ok {
		return e, epoch, nil
	}
	rs, err := s.cfg.Resolve(name)
	if err != nil {
		return nil, 0, err
	}
	mon, err := core.New(core.Config{
		Rules:     rs,
		Period:    s.cfg.Period,
		DeltaMode: s.cfg.DeltaMode,
		Triage:    s.cfg.Triage,
	})
	if err != nil {
		return nil, 0, err
	}
	e := &specEntry{mon: mon}
	for _, r := range rs.Rules() {
		e.rules = append(e.rules, r.Name)
	}
	label := name
	if label == "" {
		label = "default"
	}
	e.met = core.NewMetrics(s.reg, label, e.rules)
	if flt := s.cfg.Flight; flt != nil {
		for _, r := range e.rules {
			e.frules = append(e.frules, flt.Intern(r))
		}
	}
	s.specs[name] = e
	return e, epoch, nil
}

// refuse answers a connection that never became a session.
func (s *Server) refuse(conn net.Conn, msg string) {
	s.stats.sessionsRefused.Add(1)
	conn.SetWriteDeadline(time.Now().Add(handshakeTimeout))
	wire.Write(conn, wire.Error{Msg: msg})
	conn.Close()
}

// newToken draws a nonzero random resume token.
func newToken() uint64 {
	var b [8]byte
	for {
		if _, err := cryptorand.Read(b[:]); err != nil {
			panic(fmt.Sprintf("fleet: token entropy: %v", err))
		}
		if t := binary.LittleEndian.Uint64(b[:]); t != 0 {
			return t
		}
	}
}

// handleConn performs the handshake — a Hello opening a fresh session
// or a Resume reattaching a parked one — and runs the attachment to
// completion.
func (s *Server) handleConn(conn net.Conn) {
	if n := s.active.Add(1); s.cfg.MaxSessions > 0 && n > int64(s.cfg.MaxSessions) {
		s.active.Add(-1)
		s.refuse(conn, fmt.Sprintf("session limit %d reached", s.cfg.MaxSessions))
		return
	}
	defer s.active.Add(-1)

	br := bufio.NewReaderSize(conn, 64<<10)

	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	rec, err := wire.Read(br)
	if err != nil {
		s.refuse(conn, fmt.Sprintf("handshake: %v", err))
		return
	}
	conn.SetReadDeadline(time.Time{})

	switch rec := rec.(type) {
	case wire.Hello:
		s.handleHello(conn, br, rec)
	case wire.Resume:
		s.handleResume(conn, br, rec)
	default:
		s.refuse(conn, fmt.Sprintf("handshake: expected hello or resume, got %T", rec))
	}
}

func (s *Server) handleHello(conn net.Conn, br *bufio.Reader, hello wire.Hello) {
	if hello.Version != wire.Version {
		s.refuse(conn, fmt.Sprintf("protocol version %d unsupported (server speaks %d)",
			hello.Version, wire.Version))
		return
	}
	if s.closed.Load() {
		s.refuse(conn, "server draining")
		return
	}
	entry, epoch, err := s.specFor(hello.Spec)
	if err != nil {
		s.refuse(conn, fmt.Sprintf("spec %q: %v", hello.Spec, err))
		return
	}
	om, err := entry.mon.Online(s.cfg.DB)
	if err != nil {
		s.refuse(conn, fmt.Sprintf("session setup: %v", err))
		return
	}
	om.Instrument(entry.met)

	sess := &session{
		id:        s.nextID.Add(1),
		srv:       s,
		token:     newToken(),
		om:        om,
		entry:     entry,
		vehicle:   hello.Vehicle,
		specName:  hello.Spec,
		specEpoch: epoch,
		tally:     make(map[string]*ruleTally, len(entry.rules)),
	}
	sess.setupFlight()
	if led := s.cfg.Ledger; led != nil {
		// The grant is durable before the client can hold it, so a
		// granted token always resolves to something after a crash.
		if err := led.SessionOpened(sess.id, sess.token, wire.Version, sess.vehicle, hello.Spec); err != nil {
			s.stats.ledgerErrors.Add(1)
			om.Close()
			s.refuse(conn, fmt.Sprintf("session ledger: %v", err))
			return
		}
	}
	s.stats.sessionsOpened.Add(1)
	s.attach(sess, conn, br, wire.SessionGrant{Session: sess.id, Token: sess.token, Epoch: s.cfg.Epoch})
}

func (s *Server) handleResume(conn net.Conn, br *bufio.Reader, res wire.Resume) {
	if res.Version != wire.Version {
		s.refuse(conn, fmt.Sprintf("protocol version %d unsupported for resume (server speaks %d)",
			res.Version, wire.Version))
		return
	}
	if res.Epoch > s.cfg.Epoch {
		// The client's grant came from a later ledger epoch than this
		// process carries: the server's durable state was lost or
		// rolled back, and silently resuming would serve stale state as
		// truth. Refuse so the client fails loudly instead.
		s.refuse(conn, fmt.Sprintf("stale server state: client holds epoch %d, server is at epoch %d",
			res.Epoch, s.cfg.Epoch))
		return
	}
	sess := s.claim(res.Token)
	if sess == nil {
		if s.closed.Load() {
			// A stopping server cannot vouch that the token is unknown:
			// under a ledger its successor process restores the session.
			// Drop the connection so the client retries, not gives up.
			conn.Close()
			return
		}
		s.refuse(conn, "unknown or expired session token")
		return
	}
	s.stats.sessionsResumed.Add(1)
	if sess.finalized {
		s.deliverFinal(conn, br, sess, res.LastEventSeq)
		return
	}
	sess.resumeFrom = res.LastEventSeq
	s.attach(sess, conn, br, wire.SessionGrant{
		Session: sess.id, Token: sess.token, AckSeq: sess.lastApplied, Epoch: s.cfg.Epoch,
	})
}

// deliverFinal re-serves a finalized session's event tail and verdict
// to a client that missed them, then re-parks the session for another
// grace round in case this delivery is lost too.
func (s *Server) deliverFinal(conn net.Conn, br *bufio.Reader, sess *session, lastEventSeq uint64) {
	bw := bufio.NewWriterSize(conn, 64<<10)
	wire.Write(bw, wire.SessionGrant{Session: sess.id, Token: sess.token, AckSeq: sess.lastApplied, Epoch: s.cfg.Epoch})
	from := lastEventSeq
	if from > uint64(len(sess.events)) {
		from = uint64(len(sess.events))
	}
	for i := from; i < uint64(len(sess.events)); i++ {
		wire.Write(bw, wire.SeqEvent{Seq: i + 1, Event: sess.events[i]})
	}
	// bufio's error is sticky, so a clean final flush means every write
	// above reached the transport.
	if wire.Write(bw, *sess.verdictRec) == nil && bw.Flush() == nil {
		sess.delivered = true
		s.logDelivered(sess)
	}
	if s.closed.Load() && sess.delivered {
		// During a drain, only the client's ack proves delivery — and
		// the ack must not outrun the session's archive records.
		s.archBarrier()
		sess.confirmDelivery(conn, br)
	}
	conn.Close()
	s.repark(sess)
}

// repark returns a claimed-but-unattached session to the parked table.
func (s *Server) repark(sess *session) {
	s.parkMu.Lock()
	if !s.closed.Load() || !sess.finalized || !sess.delivered {
		p := &parked{sess: sess}
		p.timer = time.AfterFunc(s.cfg.ResumeGrace, func() { s.reap(sess.token) })
		s.parkedBy[sess.token] = p
		s.parkMu.Unlock()
		return
	}
	s.parkMu.Unlock()
	s.discard(sess)
}

// attach binds a connection to the session, sends the handshake reply
// and runs the session; afterwards it either parks for resume or
// resolves for good.
func (s *Server) attach(sess *session, conn net.Conn, br *bufio.Reader, reply wire.Record) {
	sess.conn = conn
	sess.br = br
	sess.bw = bufio.NewWriterSize(conn, 64<<10)
	sess.queue = make(chan item, s.cfg.QueueDepth)
	sess.workerDone = make(chan struct{})
	sess.quarantined = 0
	sess.lastEnq = sess.lastApplied // unapplied queue items died with the old attachment
	sess.endMu.Lock()
	sess.suspended = false
	sess.endMu.Unlock()

	s.register(sess)
	// The reply leaves only once the token is registered as attached: a
	// client that loses this connection right after the grant and
	// resumes at once must find its session attached (claim then waits
	// for it to park), never in neither table.
	if err := wire.Write(conn, reply); err != nil {
		conn.Close() // run sees the dead connection and parks or resolves
	}
	park := sess.run()
	s.unregister(sess, park)
	if !park {
		// The attachment resolved the session for good (terminal abort,
		// or a drain that saw the verdict delivered and acked).
		s.logClosed(sess)
		if !sess.finalized {
			s.stats.sessionsClosed.Add(1)
			sess.finalized = true // terminal: never counted again
		}
	}
}
