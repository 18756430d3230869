package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"text/tabwriter"

	"cpsmon/internal/archive"
	"cpsmon/internal/core"
	"cpsmon/internal/recheck"
	"cpsmon/internal/rules"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/speclang"
	"cpsmon/internal/wire"
)

// runArchiveLs lists the segments of an archive directory: one line
// per segment with its state, record count, sequence range, capture
// time span and size, plus totals. The catalog open is read-only, so
// listing a directory a daemon is still writing into is safe.
func runArchiveLs(dir string, out io.Writer) error {
	cat, err := archive.OpenCatalog(dir)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SEGMENT\tSTATE\tRECORDS\tSEQ\tTIME\tBYTES")
	var records, bytes uint64
	for _, s := range cat.Segments() {
		state := "sealed"
		switch {
		case s.Damaged:
			state = "damaged"
		case !s.Sealed:
			state = "part"
		case s.Scanned:
			state = "sealed(scanned)"
		}
		if s.Torn {
			state += "+torn"
		}
		seq, span := "-", "-"
		if s.Records > 0 {
			seq = fmt.Sprintf("%d..%d", s.FirstSeq, s.LastSeq)
			span = fmt.Sprintf("%v..%v", s.TMin, s.TMax)
		}
		fmt.Fprintf(tw, "%08d\t%s\t%d\t%s\t%s\t%d\n",
			s.Number, state, s.Records, seq, span, s.Bytes)
		records += uint64(s.Records)
		bytes += uint64(s.Bytes)
	}
	fmt.Fprintf(tw, "total\t%d segments\t%d\t\t\t%d\n", len(cat.Segments()), records, bytes)
	return tw.Flush()
}

// runArchiveExport prints the archive's audit trail: every archived
// event and verdict, in archive order, as one JSON line. Capture-
// relative at_s is the join key back into the archived frames; there
// is no wall-clock stamp. The fleet archives each produced event and
// verdict exactly once, crash restarts included, so the export holds
// no duplicates.
func runArchiveExport(dir string, out io.Writer) error {
	cat, err := archive.OpenCatalog(dir)
	if err != nil {
		return err
	}
	it := cat.Iter(archive.Query{Kinds: archive.KindEvent | archive.KindVerdict})
	defer it.Close()
	bw := bufio.NewWriter(out)
	enc := json.NewEncoder(bw)
	for it.Next() {
		r := it.Record()
		var line any
		if r.Kind == archive.KindVerdict {
			line = newExportVerdict(r)
		} else {
			line = newExportEvent(r)
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	if err := it.Err(); err != nil {
		return err
	}
	return bw.Flush()
}

// jsonFloat marshals like a float64 but survives the non-finite peaks
// a NaN- or Inf-injected signal produces: JSON has no Inf/NaN literal,
// and one unmarshalable severity must not cost the export its event
// line. Non-finite values are emitted as the quoted strings "+Inf",
// "-Inf" and "NaN".
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return strconv.AppendQuote(nil, strconv.FormatFloat(v, 'g', -1, 64)), nil
	}
	return json.Marshal(v)
}

// exportEvent is one event line: a violation opening or closing, or a
// stream gap.
type exportEvent struct {
	Kind    string `json:"kind"` // begin, end or gap
	Session uint64 `json:"session"`
	Vehicle string `json:"vehicle,omitempty"`
	Rule    string `json:"rule,omitempty"`
	// AtSec is the event's capture-relative time in seconds: the
	// violation start for begin events, the exclusive end otherwise.
	AtSec float64 `json:"at_s"`
	// Severity is the triage class of a closed violation; Peak its
	// maximum absolute severity over the interval (quoted "+Inf" /
	// "NaN" when an injected signal drove it non-finite).
	Severity string    `json:"severity,omitempty"`
	Peak     jsonFloat `json:"peak,omitempty"`
	Msg      string    `json:"msg,omitempty"`
}

func newExportEvent(r *archive.Record) exportEvent {
	e := r.Event
	line := exportEvent{
		Kind:    e.Kind.String(),
		Session: r.Session,
		Vehicle: r.Vehicle,
		Rule:    e.Rule,
		AtSec:   e.Time.Seconds(),
		Msg:     e.Msg,
	}
	if e.Kind == wire.EventEnd {
		line.Severity = core.Class(e.Class).String()
		line.Peak = jsonFloat(e.Peak)
	}
	return line
}

// exportRule is one rule row of a verdict line.
type exportRule struct {
	Rule       string `json:"rule"`
	Violated   bool   `json:"violated"`
	Violations uint32 `json:"violations"`
	Real       uint32 `json:"real"`
	Transient  uint32 `json:"transient"`
	Negligible uint32 `json:"negligible"`
}

// exportVerdict is one verdict line: the session's end-of-stream
// outcome, one row per rule in rule-set order.
type exportVerdict struct {
	Kind    string       `json:"kind"` // always "verdict"
	Session uint64       `json:"session"`
	Vehicle string       `json:"vehicle,omitempty"`
	Rules   []exportRule `json:"rules"`

	FramesIngested uint64 `json:"frames_ingested"`
	FramesDropped  uint64 `json:"frames_dropped"`
	FramesRejected uint64 `json:"frames_rejected"`
}

func newExportVerdict(r *archive.Record) exportVerdict {
	v := r.Verdict
	line := exportVerdict{
		Kind:           "verdict",
		Session:        r.Session,
		Vehicle:        r.Vehicle,
		FramesIngested: v.FramesIngested,
		FramesDropped:  v.FramesDropped,
		FramesRejected: v.FramesRejected,
	}
	for _, rv := range v.Rules {
		line.Rules = append(line.Rules, exportRule{
			Rule: rv.Rule, Violated: rv.Violated,
			Violations: rv.Violations, Real: rv.Real,
			Transient: rv.Transient, Negligible: rv.Negligible,
		})
	}
	return line
}

// runRecheck replays an archived time range through a freshly
// compiled spec set and prints per-session, per-rule agreement with
// the archived verdicts. A run that finds rule regressions returns an
// error, so spec edits can be gated on the fleet's history from CI.
func runRecheck(dir, spec string, db *sigdb.DB, mode speclang.DeltaMode, opt recheck.Options, out io.Writer) error {
	rs, err := loadRules(spec, db)
	if err != nil {
		return err
	}
	cat, err := archive.OpenCatalog(dir)
	if err != nil {
		return err
	}
	cfg := core.Config{Rules: rs, DeltaMode: mode, Triage: rules.DefaultTriage()}
	rep, err := recheck.Run(cat, db, cfg, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "recheck: %s against %q: %d sessions, %d frames replayed\n",
		dir, spec, len(rep.Sessions), rep.FramesReplayed)
	for i := range rep.Sessions {
		sr := &rep.Sessions[i]
		status := "agrees"
		switch {
		case sr.Archived == nil:
			status = "no archived verdict"
		case sr.Divergent():
			status = "DIVERGED"
		}
		fmt.Fprintf(out, "session %d %-16s %8d frames  %s\n", sr.Session, sr.Vehicle, sr.Frames, status)
		for _, d := range sr.Diffs {
			kind := "fix"
			if d.Regression {
				kind = "REGRESSION"
			}
			fmt.Fprintf(out, "  %-28s %s: archived %s, rechecked %s\n",
				d.Rule, kind, ruleSummary(d.Archived), ruleSummary(d.Rechecked))
		}
	}
	fmt.Fprintf(out, "\nrecheck: %d sessions checked, %d divergent (%d rule regressions, %d fixes)\n",
		rep.Checked, rep.Divergent, rep.Regressions, rep.Fixes)
	if rep.Regressions > 0 {
		return fmt.Errorf("recheck found %d rule regressions", rep.Regressions)
	}
	return nil
}

func ruleSummary(rv wire.RuleVerdict) string {
	if !rv.Violated {
		return "satisfied"
	}
	return fmt.Sprintf("violated (%d: %d real, %d transient, %d negligible)",
		rv.Violations, rv.Real, rv.Transient, rv.Negligible)
}
