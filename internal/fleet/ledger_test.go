package fleet

import (
	"net"
	"sync"
	"testing"
	"time"

	"cpsmon/internal/can"
	"cpsmon/internal/faultnet"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/wire"
)

// nullArchiver satisfies Archiver for ledger tests that do not inspect
// archive contents.
type nullArchiver struct{}

func (nullArchiver) ArchiveFrames(uint64, string, []can.Frame) error { return nil }
func (nullArchiver) ArchiveEvent(uint64, string, wire.Event) error   { return nil }
func (nullArchiver) ArchiveVerdict(uint64, string, wire.Verdict) error {
	return nil
}

// memLedger is an in-memory Ledger capturing the server's calls, for
// asserting the write-before-ack ordering contract remotely: any
// protocol message the client holds must already be backed by a ledger
// record (the ledger write happens-before the wire write, which
// happens-before our read).
type memLedger struct {
	mu        sync.Mutex
	opened    map[uint64]struct{}
	token     uint64
	proto     uint16
	vehicle   string
	wmAck     map[uint64]uint64
	wmFrames  map[uint64]uint64
	verdicts  map[uint64]wire.Verdict
	delivered map[uint64]bool
	closed    map[uint64]bool
}

func newMemLedger() *memLedger {
	return &memLedger{
		opened:    make(map[uint64]struct{}),
		wmAck:     make(map[uint64]uint64),
		wmFrames:  make(map[uint64]uint64),
		verdicts:  make(map[uint64]wire.Verdict),
		delivered: make(map[uint64]bool),
		closed:    make(map[uint64]bool),
	}
}

func (l *memLedger) SessionOpened(session, token uint64, proto uint16, vehicle, spec string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.opened[session] = struct{}{}
	l.token, l.proto, l.vehicle = token, proto, vehicle
	return nil
}

func (l *memLedger) Watermark(session, ackSeq, frames, rejected uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.wmAck[session] = ackSeq
	l.wmFrames[session] = frames
	return nil
}

func (l *memLedger) VerdictReached(session, eventSeq uint64, v wire.Verdict) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.verdicts[session] = v
	return nil
}

func (l *memLedger) VerdictDelivered(session uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.delivered[session] = true
	return nil
}

func (l *memLedger) SessionClosed(session uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed[session] = true
	return nil
}

// TestLedgerConfigValidation pins the constraints a crash-safe server
// build must satisfy.
func TestLedgerConfigValidation(t *testing.T) {
	base := Config{DB: sigdb.Vehicle(), Resolve: testResolver, Ledger: newMemLedger()}
	if _, err := NewServer(base); err == nil {
		t.Error("NewServer accepted a Ledger without an Archiver")
	}
	withArch := base
	withArch.Archiver = nullArchiver{}
	withArch.DropWhenFull = true
	if _, err := NewServer(withArch); err == nil {
		t.Error("NewServer accepted Ledger together with DropWhenFull")
	}
	withArch.DropWhenFull = false
	if _, err := NewServer(withArch); err != nil {
		t.Errorf("NewServer refused a valid ledgered config: %v", err)
	}
}

// TestLedgerWriteBeforeAck drives a raw session against a server
// with a recording ledger and asserts the ordering contract at every
// protocol step: when the client holds a grant the session is ledgered;
// when it holds an Ack the watermark covers that ack; when it holds the
// verdict the verdict record exists.
func TestLedgerWriteBeforeAck(t *testing.T) {
	led := newMemLedger()
	srv, addr := startServer(t, func(cfg *Config) {
		cfg.Ledger = led
		cfg.Archiver = nullArchiver{}
		// Acks wait for the group commit; a short cadence keeps the
		// lock-step exchange below snappy.
		cfg.WatermarkInterval = 2 * time.Millisecond
	})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	grant := rawGrant(t, conn, "veh-ledger")

	led.mu.Lock()
	_, opened := led.opened[grant.Session]
	tok := led.token
	led.mu.Unlock()
	if !opened {
		t.Fatal("client holds a grant for a session the ledger never opened")
	}
	if tok != grant.Token {
		t.Fatalf("ledgered token %#x, granted %#x", tok, grant.Token)
	}

	for seq := uint64(1); seq <= 2; seq++ {
		base := time.Duration(seq) * 100 * time.Millisecond
		frames := []can.Frame{
			{Time: base + 10*time.Millisecond, ID: sigdb.FrameVehicleDyn},
			{Time: base + 20*time.Millisecond, ID: sigdb.FrameVehicleDyn},
		}
		if err := wire.Write(conn, wire.SeqBatch{Seq: seq, Frames: frames}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		rec, err := wire.Read(conn)
		if err != nil {
			t.Fatalf("batch %d ack: %v", seq, err)
		}
		ack, ok := rec.(wire.Ack)
		if !ok {
			t.Fatalf("batch %d: got %T, want Ack", seq, rec)
		}
		led.mu.Lock()
		wmAck, wmFrames := led.wmAck[grant.Session], led.wmFrames[grant.Session]
		led.mu.Unlock()
		if wmAck < ack.Seq {
			t.Fatalf("client holds ack %d but the ledger watermark is %d — ack outran the ledger", ack.Seq, wmAck)
		}
		if want := seq * 2; wmFrames != want {
			t.Fatalf("watermark frames = %d after batch %d, want %d", wmFrames, seq, want)
		}
	}

	if err := wire.Write(conn, wire.FinishSeq{Seq: 2}); err != nil {
		t.Fatal(err)
	}
	v := awaitVerdict(t, conn)
	led.mu.Lock()
	_, reached := led.verdicts[grant.Session]
	led.mu.Unlock()
	if !reached {
		t.Fatal("client holds the verdict but the ledger has no VerdictReached record")
	}
	if v.FramesIngested != 4 {
		t.Errorf("verdict ingested %d, want 4", v.FramesIngested)
	}
	// Delivery is recorded after the verdict write flushes; give the
	// worker a moment.
	deadline := time.Now().Add(5 * time.Second)
	for {
		led.mu.Lock()
		del := led.delivered[grant.Session]
		led.mu.Unlock()
		if del {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("verdict delivery never recorded in the ledger")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := srv.Stats(); st.LedgerErrors != 0 {
		t.Errorf("LedgerErrors = %d", st.LedgerErrors)
	}
}

// TestBackoffResetAfterResume pins the reconnect-backoff satellite: a
// failed attempt inflates the persistent starting delay, and a
// successful resume handshake resets it to the configured base — a
// healthy transport earns the base interval back instead of paying the
// last outage's inflated delay forever.
func TestBackoffResetAfterResume(t *testing.T) {
	_, addr := startServer(t, func(c *Config) { c.ResumeGrace = 30 * time.Second })
	log := hilLog(t, 5, 10*time.Second, nil)

	// Dial 0 dies mid-uplink (forcing episode 1); dial 1 dies instantly
	// (a failed attempt, inflating the backoff); dial 2+ are clean.
	d := &faultnet.Dialer{Schedules: [][]faultnet.Fault{
		{{Op: faultnet.Disconnect, Dir: faultnet.Send, Offset: 16 << 10}},
		{{Op: faultnet.Disconnect, Dir: faultnet.Send, Offset: 0}},
	}}
	const base = 25 * time.Millisecond
	var (
		mu       sync.Mutex
		cl       *Client
		observed []time.Duration
	)
	dial := func(addr string) (net.Conn, error) {
		mu.Lock()
		if cl != nil {
			cl.mu.Lock()
			observed = append(observed, cl.backoff)
			cl.mu.Unlock()
		}
		mu.Unlock()
		return d.Dial(addr)
	}
	c, err := DialOptions(addr, Options{
		Vehicle:    "veh-backoff",
		Dial:       dial,
		MaxRetries: 8,
		Backoff:    base,
		MaxBackoff: 10 * time.Second,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mu.Lock()
	cl = c
	mu.Unlock()

	if _, err := c.Replay(log, 0); err != nil {
		t.Fatalf("replay: %v", err)
	}

	mu.Lock()
	peak := time.Duration(0)
	for _, b := range observed {
		if b > peak {
			peak = b
		}
	}
	mu.Unlock()
	if peak <= base {
		t.Fatalf("backoff never inflated above the base (%v); the dial-1 failure went unobserved", base)
	}
	c.mu.Lock()
	final := c.backoff
	c.mu.Unlock()
	if final != base {
		t.Errorf("backoff after a successful resume = %v, want the base %v", final, base)
	}
	if d.Dials() < 3 {
		t.Fatalf("only %d dials; the redial path went unexercised", d.Dials())
	}
}
