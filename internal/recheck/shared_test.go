package recheck_test

import (
	"reflect"
	"sync"
	"testing"

	"cpsmon/internal/archive"
	"cpsmon/internal/can"
	"cpsmon/internal/core"
	"cpsmon/internal/recheck"
	"cpsmon/internal/sigdb"
)

// onlineEvents replays log through a new session of mon in wire-sized
// runs and returns every event, copied out of the session's scratch.
func onlineEvents(mon *core.Monitor, db *sigdb.DB, log *can.Log) ([]core.OnlineEvent, error) {
	om, err := mon.Online(db)
	if err != nil {
		return nil, err
	}
	var out []core.OnlineEvent
	frames := log.Frames()
	for at := 0; at < len(frames); at += 256 {
		evs, _, err := om.PushFrames(frames[at:min(at+256, len(frames))])
		if err != nil {
			return nil, err
		}
		out = append(out, evs...)
	}
	evs, err := om.Close()
	if err != nil {
		return nil, err
	}
	return append(out, evs...), nil
}

// TestMonitorSharedAcrossGoroutines runs one Monitor, and so one
// compiled program, from many goroutines at once: CheckLog calls,
// online sessions, and a recheck sharded over four workers. Every
// result must equal the same call run alone. Under -race this pins that
// sessions never write the program they share.
func TestMonitorSharedAcrossGoroutines(t *testing.T) {
	const sessions = 4
	ticks := 1500
	if testing.Short() {
		ticks = 600
	}
	db := sigdb.Vehicle()
	dir := t.TempDir()
	buildShardedArchive(t, dir, sessions, ticks, interleaved)
	cat, err := archive.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := core.New(strictConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	logs := make([]*can.Log, sessions)
	wantReports := make([]*core.Report, sessions)
	wantEvents := make([][]core.OnlineEvent, sessions)
	for i := range logs {
		logs[i] = shardLog(t, ticks, i+1)
		if wantReports[i], err = mon.CheckLog(logs[i], db); err != nil {
			t.Fatal(err)
		}
		if wantEvents[i], err = onlineEvents(mon, db, logs[i]); err != nil {
			t.Fatal(err)
		}
		if len(wantEvents[i]) == 0 {
			t.Fatalf("session %d: no events; the comparison would be vacuous", i+1)
		}
	}
	wantRecheck, err := recheck.RunMonitor(cat, db, mon, recheck.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2*sessions+1)
	for i := range logs {
		wg.Add(2)
		go func() {
			defer wg.Done()
			rep, err := mon.CheckLog(logs[i], db)
			if err == nil && !reflect.DeepEqual(rep, wantReports[i]) {
				t.Errorf("session %d: concurrent CheckLog report differs from the serial one", i+1)
			}
			errs <- err
		}()
		go func() {
			defer wg.Done()
			evs, err := onlineEvents(mon, db, logs[i])
			if err == nil && !reflect.DeepEqual(evs, wantEvents[i]) {
				t.Errorf("session %d: concurrent online events differ from the serial ones", i+1)
			}
			errs <- err
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rep, err := recheck.RunMonitor(cat, db, mon, recheck.Options{Workers: 4})
		if err == nil && !reflect.DeepEqual(rep, wantRecheck) {
			t.Errorf("concurrent recheck report differs from the serial one\nserial: %+v\nconcurrent: %+v", wantRecheck, rep)
		}
		errs <- err
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
