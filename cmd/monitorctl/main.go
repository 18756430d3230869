// Command monitorctl is the bolt-on test oracle: it checks recorded
// traces (CAN frame logs or CSV signal traces) against the safety rule
// sets and reports per-rule verdicts, violations and triage classes.
//
// Usage:
//
//	monitorctl -trace capture.canlog            # strict rules
//	monitorctl -trace drive.csv -rules relaxed
//	monitorctl -trace capture.canlog -rules specs/strict.spec -delta naive
//	monitorctl -trace capture.canlog -online     # streaming replay
//	monitorctl -trace capture.canlog -stream localhost:9320 -speed 1
//	                                             # replay to a monitord
//	monitorctl -trace capture.canlog -explain 2  # context strips per violation
//	monitorctl -signals                          # print the Figure 1 inventory
//	monitorctl -writedb my.netdb                 # export the network DB template
//	monitorctl -metrics 127.0.0.1:9321           # scrape a monitord admin endpoint
//	monitorctl -top 127.0.0.1:9321               # live fleet latency view
//	monitorctl -top 127.0.0.1:9321 -interval 0   # one frame, then exit
//	monitorctl -archive-dir /var/lib/cpsmon -archive-ls
//	                                             # list a monitord archive's segments
//	monitorctl -archive-dir /var/lib/cpsmon -archive-ls -v
//	                                             # export its events and verdicts as JSONL
//	monitorctl -archive-dir /var/lib/cpsmon -recheck specs/tightened.spec -from 1m -to 5m
//	                                             # re-verify archived traffic against a spec
//	monitorctl -archive-dir /var/lib/cpsmon -spec-dir /var/lib/cpsmon/specs -recheck 3f1a9c0d2e4b
//	                                             # ... against a registry spec by hash
//	monitorctl spec push -f tightened.spec -admin 127.0.0.1:9321
//	monitorctl spec status -admin 127.0.0.1:9321 # rollout phase + shadow counters
//	monitorctl spec promote -admin 127.0.0.1:9321
//	monitorctl spec rollback -reason "too chatty" -admin 127.0.0.1:9321
//	monitorctl -version                          # print build version and exit
//	monitorctl -db plant.netdb -rules plant.spec -trace plant.canlog
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cpsmon/internal/can"
	"cpsmon/internal/core"
	"cpsmon/internal/fleet"
	"cpsmon/internal/recheck"
	"cpsmon/internal/rules"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/speclang"
	"cpsmon/internal/trace"
	"cpsmon/internal/wire"
)

func main() {
	// `monitorctl spec <verb>` is a subcommand group with its own flags;
	// everything else goes through the single flag set in run.
	var err error
	if len(os.Args) > 1 && os.Args[1] == "spec" {
		err = runSpec(os.Args[2:], os.Stdout)
	} else {
		err = run(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "monitorctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("monitorctl", flag.ContinueOnError)
	var (
		tracePath = fs.String("trace", "", "trace to check: a .canlog frame capture or a .csv signal trace")
		ruleSpec  = fs.String("rules", "strict", "rule set: strict, relaxed, or a path to a .spec file")
		deltaMode = fs.String("delta", "aware", "multi-rate difference semantics: aware or naive")
		dbPath    = fs.String("db", "", "custom network database file (see 'monitorctl -writedb' for the format); default is the paper's vehicle network")
		writeDB   = fs.String("writedb", "", "write the built-in vehicle database to this file as a template and exit")
		signals   = fs.Bool("signals", false, "print the network's signal inventory (paper Figure 1 for the built-in vehicle) and exit")
		metrics   = fs.String("metrics", "", "scrape a monitord admin endpoint (host:port or URL), pretty-print its metrics, and exit")
		top       = fs.String("top", "", "render a live fleet latency view (rates, per-vehicle e2e quantiles, SLO burn, stage breakdown) from a monitord admin endpoint")
		interval  = fs.Duration("interval", 2*time.Second, "refresh interval for -top (0 = render one frame and exit)")
		online    = fs.Bool("online", false, "replay the capture through the streaming monitor, printing events as they become decidable (requires a .canlog trace)")
		stream    = fs.String("stream", "", "replay the capture to a monitord fleet server at this address, printing its incremental verdicts (requires a .canlog trace)")
		speed     = fs.Float64("speed", 0, "replay speed for -stream: 1 is real time, 2 double speed, 0 as fast as the server accepts")
		vehicle   = fs.String("vehicle", "monitorctl", "vehicle identity announced to the fleet server with -stream")
		retry     = fs.Duration("retry", 50*time.Millisecond, "initial reconnect backoff for -stream, doubled with jitter per failed attempt")
		maxRetry  = fs.Int("max-retries", 5, "reconnect attempts per outage for -stream before the replay fails; 0 disables reconnection")
		explain   = fs.Int("explain", 0, "render signal context strips for up to N violations per rule")
		margin    = fs.Duration("margin", 2*time.Second, "context margin around each explained violation")
		verbose   = fs.Bool("v", false, "list every violation; with -archive-ls, export every archived event and verdict as one JSON line instead of the segment table")

		version     = fs.Bool("version", false, "print the build version and exit")
		archiveDir  = fs.String("archive-dir", "", "monitord archive directory for -archive-ls and -recheck")
		specDir     = fs.String("spec-dir", "", "monitord spec registry directory: lets -recheck name a stored spec by content hash (12+ hex digits) instead of a file")
		archiveLs   = fs.Bool("archive-ls", false, "list the segments of -archive-dir and exit (-v: export its events and verdicts as JSON lines)")
		recheckSpec = fs.String("recheck", "", "re-verify archived traffic in -archive-dir against this rule set (strict, relaxed, or a .spec path) and report per-rule divergence")
		fromT       = fs.Duration("from", 0, "capture-time lower bound for -recheck (0 = start of archive)")
		toT         = fs.Duration("to", 0, "capture-time upper bound for -recheck (0 = end of archive)")
		workers     = fs.Int("workers", 0, "worker count for -recheck session sharding (0 = GOMAXPROCS, 1 = sequential)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *version {
		fmt.Println(versionString("monitorctl"))
		return nil
	}
	if *metrics != "" {
		return runMetrics(*metrics, os.Stdout)
	}
	if *top != "" {
		return runTop(*top, *interval, os.Stdout)
	}
	if *writeDB != "" {
		f, err := os.Create(*writeDB)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := sigdb.WriteFormat(f, sigdb.Vehicle()); err != nil {
			return err
		}
		return f.Close()
	}
	db := sigdb.Vehicle()
	if *dbPath != "" {
		f, err := os.Open(*dbPath)
		if err != nil {
			return err
		}
		loaded, err := sigdb.ReadFormat(f)
		f.Close()
		if err != nil {
			return err
		}
		db = loaded
	}
	if *signals {
		printSignals(db)
		return nil
	}
	mode := speclang.DeltaUpdateAware
	switch *deltaMode {
	case "aware":
	case "naive":
		mode = speclang.DeltaNaive
	default:
		return fmt.Errorf("unknown -delta %q (want aware or naive)", *deltaMode)
	}
	if *archiveLs {
		if *archiveDir == "" {
			return fmt.Errorf("-archive-ls requires -archive-dir")
		}
		if *verbose {
			return runArchiveExport(*archiveDir, os.Stdout)
		}
		return runArchiveLs(*archiveDir, os.Stdout)
	}
	if *recheckSpec != "" {
		if *archiveDir == "" {
			return fmt.Errorf("-recheck requires -archive-dir")
		}
		opt := recheck.Options{From: *fromT, To: *toT, Workers: *workers}
		// -vehicle doubles as the -stream identity, so its default
		// must not silently filter the recheck; only an explicit flag
		// narrows the replay.
		if set["vehicle"] {
			opt.Vehicle = *vehicle
		}
		spec := *recheckSpec
		if *specDir != "" {
			resolved, cleanup, err := resolveRegistrySpec(*specDir, spec)
			if err != nil {
				return err
			}
			defer cleanup()
			spec = resolved
		}
		return runRecheck(*archiveDir, spec, db, mode, opt, os.Stdout)
	}
	if *tracePath == "" {
		fs.Usage()
		return fmt.Errorf("-trace is required")
	}
	if *stream != "" {
		streamSpec := *ruleSpec
		if !set["rules"] {
			// No explicit -rules: ride the server's default spec instead
			// of pinning its name, so the session is eligible for spec
			// rollouts (named-spec sessions are rollout-exempt by design
			// — see DESIGN.md §16).
			streamSpec = ""
		}
		return runStream(*stream, *tracePath, streamSpec, *vehicle, *speed, *retry, *maxRetry)
	}

	rs, err := loadRules(*ruleSpec, db)
	if err != nil {
		return err
	}
	mon, err := core.New(core.Config{Rules: rs, DeltaMode: mode, Triage: rules.DefaultTriage()})
	if err != nil {
		return err
	}
	if *online {
		return runOnline(mon, *tracePath, db)
	}

	tr, err := loadTrace(*tracePath, db)
	if err != nil {
		return err
	}
	rep, err := mon.CheckTrace(tr)
	if err != nil {
		return err
	}

	fmt.Printf("trace: %s (%d steps at %v)\n\n", *tracePath, rep.Steps, rep.Period)
	for _, rr := range rep.Rules {
		fmt.Printf("%-28s %s", rr.Name(), rr.Verdict)
		if rr.Verdict == core.Violated {
			fmt.Printf("  (%d violations: %d real, %d transient, %d negligible)",
				len(rr.Result.Violations),
				rr.Count(core.ClassReal), rr.Count(core.ClassTransient), rr.Count(core.ClassNegligible))
		}
		fmt.Println()
		if *verbose {
			for i, v := range rr.Result.Violations {
				fmt.Printf("    [%s] at %v for %v peak %.4g: %s\n",
					rr.Classes[i], v.Start, v.Duration(), v.Peak, v.Msg)
			}
		}
	}
	if *explain > 0 {
		for _, rr := range rep.Rules {
			for i := range rr.Result.Violations {
				if i >= *explain {
					break
				}
				ex, err := mon.Explain(tr, rep, rr.Name(), i, *margin)
				if err != nil {
					return err
				}
				fmt.Println()
				if err := ex.Render(os.Stdout); err != nil {
					return err
				}
			}
		}
	}
	if rep.AnyReal() {
		fmt.Println("\nverdict: VIOLATED (real violations present)")
	} else if rep.AnyViolated() {
		fmt.Println("\nverdict: violated, but every violation triaged as overly-strict")
	} else {
		fmt.Println("\nverdict: satisfied")
	}
	return nil
}

// runStream replays a frame capture to a monitord fleet server over
// the wire protocol, printing the server's incremental events as they
// arrive and its end-of-stream verdict. The spec selection is passed
// to the server verbatim ("strict", "relaxed", or empty for the
// server's default rule set). A connection lost mid-replay is retried
// up to maxRetry times per outage, starting at the retry backoff, and
// the session resumes from the server's last acknowledged batch.
func runStream(addr, path, spec, vehicle string, speed float64, retry time.Duration, maxRetry int) error {
	if strings.HasSuffix(path, ".csv") {
		return fmt.Errorf("-stream replays CAN frame captures, not CSV traces")
	}
	if spec != "strict" && spec != "relaxed" {
		// A path-based -rules selection is meaningless remotely: the
		// server compiles its own specs. Fall back to its default.
		spec = ""
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	log, err := can.ReadLog(f)
	f.Close()
	if err != nil {
		return err
	}
	if maxRetry <= 0 {
		maxRetry = -1 // a zero Options.MaxRetries would select the default
	}
	c, err := fleet.DialOptions(addr, fleet.Options{
		Vehicle:    vehicle,
		Spec:       spec,
		Backoff:    retry,
		MaxRetries: maxRetry,
		OnEvent: func(e wire.Event) {
			switch e.Kind {
			case wire.EventBegin:
				fmt.Printf("[%8s] %-8s violation BEGINS at %v\n", e.Time, e.Rule, e.Time)
			case wire.EventEnd:
				fmt.Printf("[%8s] %-8s violation ENDS: %v..%v (%v) peak %.4g class %s: %s\n",
					e.Time, e.Rule, e.Start, e.End, e.End-e.Start, e.Peak, core.Class(e.Class), e.Msg)
			case wire.EventGap:
				fmt.Printf("[%8s] stream gap: %s\n", e.Time, e.Msg)
			}
		},
	})
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Printf("streaming %s (%d frames, %v) to %s as %q (session %d)\n",
		path, log.Len(), log.Duration(), addr, vehicle, c.Session())
	v, err := c.Replay(log, speed)
	if err != nil {
		return err
	}
	if seen := v.FramesIngested + v.FramesDropped + v.FramesRejected; seen < uint64(log.Len()) {
		fmt.Printf("\nnote: server ended the session early (shutdown drain); verdict covers the first %d of %d frames\n",
			seen, log.Len())
	}
	fmt.Printf("\nverdict from %s (%d frames ingested, %d dropped, %d rejected):\n",
		addr, v.FramesIngested, v.FramesDropped, v.FramesRejected)
	anyViolated, anyReal := false, false
	for _, rv := range v.Rules {
		verdict := core.Satisfied
		if rv.Violated {
			verdict = core.Violated
			anyViolated = true
			anyReal = anyReal || rv.Real > 0
		}
		fmt.Printf("%-28s %s", rv.Rule, verdict)
		if rv.Violated {
			fmt.Printf("  (%d violations: %d real, %d transient, %d negligible)",
				rv.Violations, rv.Real, rv.Transient, rv.Negligible)
		}
		fmt.Println()
	}
	switch {
	case anyReal:
		fmt.Println("\nverdict: VIOLATED (real violations present)")
	case anyViolated:
		fmt.Println("\nverdict: violated, but every violation triaged as overly-strict")
	default:
		fmt.Println("\nverdict: satisfied")
	}
	return nil
}

// runOnline replays a frame capture through the streaming monitor,
// printing each event with the frame time at which it became decidable.
func runOnline(mon *core.Monitor, path string, db *sigdb.DB) error {
	if strings.HasSuffix(path, ".csv") {
		return fmt.Errorf("-online replays CAN frame captures, not CSV traces")
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	log, err := can.ReadLog(f)
	if err != nil {
		return err
	}
	om, err := mon.Online(db)
	if err != nil {
		return err
	}
	report := func(at string, evs []core.OnlineEvent) {
		for _, e := range evs {
			switch e.Kind {
			case speclang.ViolationBegin:
				fmt.Printf("[%8s] %-8s violation BEGINS at %v\n", at, e.Rule, e.Time)
			case speclang.ViolationEnd:
				v := e.Violation
				fmt.Printf("[%8s] %-8s violation ENDS: %v..%v (%v) peak %.4g class %s: %s\n",
					at, e.Rule, v.Start, v.End, v.Duration(), v.Peak, e.Class, v.Msg)
			}
		}
	}
	for _, fr := range log.Frames() {
		evs, err := om.PushFrame(fr)
		if err != nil {
			return err
		}
		report(fr.Time.String(), evs)
	}
	evs, err := om.Close()
	if err != nil {
		return err
	}
	report("close", evs)
	return nil
}

func loadRules(spec string, db *sigdb.DB) (*speclang.RuleSet, error) {
	switch spec {
	case "strict":
		return rules.Strict()
	case "relaxed":
		return rules.Relaxed()
	}
	src, err := os.ReadFile(spec)
	if err != nil {
		return nil, err
	}
	f, err := speclang.Parse(string(src))
	if err != nil {
		return nil, err
	}
	return speclang.Compile(f, db.SignalNames())
}

func loadTrace(path string, db *sigdb.DB) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		return trace.ReadCSV(f)
	}
	log, err := can.ReadLog(f)
	if err != nil {
		return nil, err
	}
	return trace.FromCANLog(log, db)
}

func printSignals(db *sigdb.DB) {
	// Classify the paper's Figure 1 signals as feature inputs/outputs
	// when present; a custom database lists its signals unclassified.
	role := make(map[string]string)
	for _, name := range sigdb.FSRACCInputs() {
		role[name] = "Input"
	}
	for _, name := range sigdb.FSRACCOutputs() {
		role[name] = "Output"
	}
	fmt.Println("NETWORK SIGNAL INVENTORY")
	fmt.Printf("\n%-6s %-16s %-6s %-6s %s\n", "I/O", "Name", "Type", "Unit", "Description")
	for _, name := range db.SignalNames() {
		s, ok := db.Signal(name)
		if !ok {
			continue
		}
		fmt.Printf("%-6s %-16s %-6s %-6s %s\n", role[s.Name], s.Name, s.Kind, s.Unit, s.Comment)
	}
	fmt.Println("\nBroadcast frames:")
	for _, f := range db.Frames() {
		var names []string
		for _, s := range f.Signals {
			names = append(names, s.Name)
		}
		fmt.Printf("  0x%03X %-12s every %-5v %s\n", f.ID, f.Name, f.Period, strings.Join(names, ", "))
	}
}
