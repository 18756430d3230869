package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cpsmon/internal/flight"
)

// daemon is one monitord child process.
type daemon struct {
	cmd   *exec.Cmd
	addr  string // fleet listener
	admin string // admin endpoint, host:port
	// exited closes once the process has been waited for; usage and
	// waitErr are set before.
	exited  chan struct{}
	usage   *syscall.Rusage
	waitErr error
	stopped bool
}

// startDaemon runs monitord crash-safe (-state-dir, so the archive is
// lossless and the ledger group-commits) on loopback ports, with the
// flight recorder sampling every flightSample-th batch (0 = off).
func startDaemon(bin, dir string, flightSample int) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("no -monitord binary given")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-admin", "127.0.0.1:0",
		"-state-dir", filepath.Join(dir, "state"),
		"-flight-sample", strconv.Itoa(flightSample),
		"-rules", "strict",
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start monitord: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		signalled := false
		var startup strings.Builder // output before listening, for the error
		for sc.Scan() {
			line := sc.Text()
			if !signalled {
				startup.WriteString(line + "\n")
			}
			if a, ok := strings.CutPrefix(line, "monitord: admin on "); ok {
				d.admin = a
			}
			if a, ok := strings.CutPrefix(line, "monitord: listening on "); ok && !signalled {
				d.addr, _, _ = strings.Cut(a, " ")
				signalled = true
				ready <- nil
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
		d.waitErr = cmd.Wait()
		if cmd.ProcessState != nil {
			d.usage, _ = cmd.ProcessState.SysUsage().(*syscall.Rusage)
		}
		if !signalled {
			ready <- fmt.Errorf("monitord exited before listening: %v\n%s", d.waitErr, startup.String())
		}
		close(d.exited)
	}()
	select {
	case err := <-ready:
		if err != nil {
			<-d.exited
			return nil, err
		}
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		<-d.exited
		return nil, errors.New("monitord did not start listening within 30s")
	}
	return d, nil
}

// stop drains the daemon with SIGTERM and waits for it to exit. It is
// idempotent.
func (d *daemon) stop() error {
	if d.stopped {
		return nil
	}
	d.stopped = true
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return errors.New("monitord did not drain within 60s")
	}
	if d.waitErr != nil {
		return fmt.Errorf("monitord: %w", d.waitErr)
	}
	return nil
}

// peakRSSMB is the stopped daemon's peak resident set.
func (d *daemon) peakRSSMB() float64 {
	if d.usage == nil {
		return 0
	}
	return float64(d.usage.Maxrss) / 1024 // KiB on Linux
}

// selfRSSMB is this process's peak resident set.
func selfRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// selfCPU is this process's CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var httpClient = &http.Client{Timeout: 10 * time.Second}

func (d *daemon) get(path string) ([]byte, error) {
	if d.admin == "" {
		return nil, errors.New("monitord admin endpoint unknown")
	}
	resp, err := httpClient.Get("http://" + d.admin + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return b, nil
}

// scrape is one parsed /metrics exposition: series text → value.
type scrape map[string]float64

// scrapeMetrics reads the daemon's /metrics.
func (d *daemon) scrapeMetrics() (scrape, error) {
	b, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := scrape{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// sum adds every series of one family (all label sets).
func (s scrape) sum(family string) float64 {
	var t float64
	for k, v := range s {
		if k == family || strings.HasPrefix(k, family+"{") {
			t += v
		}
	}
	return t
}

// histQuantile estimates quantile q of a histogram family from the
// delta between two scrapes, interpolating inside the bucket, summed
// over label sets.
func histQuantile(before, after scrape, family string, q float64) float64 {
	type bucket struct{ le, n float64 }
	agg := map[float64]float64{}
	for k, v := range after {
		if !strings.HasPrefix(k, family+"_bucket{") {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		le := k[i+4:]
		le = le[:strings.IndexByte(le, '"')]
		ub, err := strconv.ParseFloat(le, 64)
		if err != nil {
			if le != "+Inf" {
				continue
			}
			ub = 1e308
		}
		agg[ub] += v - before[k]
	}
	var bs []bucket
	for le, n := range agg {
		bs = append(bs, bucket{le, n})
	}
	if len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].n
	if total <= 0 {
		return 0
	}
	rank := q * total
	prevLE, prevN := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if b.le >= 1e308 {
				return prevLE
			}
			if b.n == prevN {
				return b.le
			}
			return prevLE + (b.le-prevLE)*(rank-prevN)/(b.n-prevN)
		}
		prevLE, prevN = b.le, b.n
	}
	return prevLE
}

// flightSnapshot reads /debug/flight.
func (d *daemon) flightSnapshot() (*flight.Snapshot, error) {
	b, err := d.get("/debug/flight")
	if err != nil {
		return nil, err
	}
	var s flight.Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("decode /debug/flight: %w", err)
	}
	return &s, nil
}

// mallocs reads the daemon's cumulative heap allocation count from the
// runtime statistics the heap profile carries.
func (d *daemon) mallocs() (float64, error) {
	b, err := d.get("/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "# Mallocs = "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, errors.New("heap profile carries no Mallocs line")
}
