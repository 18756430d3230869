package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// window is the length of one measurement window. A timed phase is cut
// into windows and each end-to-end figure is the favourable decile of
// its per-window values: the 90th percentile of throughput, the 10th of
// latency and CPU per frame. On a shared two-core machine the speed
// available to the benchmark swings by tens of percent over seconds,
// whatever the seed, and interference only ever slows the program; the
// best tenth of the windows tracks the program's own cost, where a mean
// or median tracks the neighbours'. The price: a stall that hits fewer
// than a tenth of the windows does not show.
const window = time.Second

// bestDecile picks the favourable decile of per-window values.
func bestDecile(xs []float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return quantile(xs, 0.9)
	}
	return quantile(xs, 0.1)
}

// completion is one finished operation: when it finished, how many
// frames it verdicted and the latency samples it produced.
type completion struct {
	at     time.Time
	frames int64
	lat    []float64
}

// windows collects completions and CPU readings over a timed phase.
type windows struct {
	start time.Time
	win   time.Duration
	n     int
	cpu   func() time.Duration

	mu    sync.Mutex
	done  []completion
	marks []time.Duration // CPU time at start + i·win, i = 0..n
	stop  chan struct{}
	wg    sync.WaitGroup
}

// startWindows begins a phase of length dur at start, reading cpu at
// every window boundary from a goroutine that stop ends.
func startWindows(start time.Time, dur time.Duration, cpu func() time.Duration) *windows {
	w := &windows{start: start, win: window, cpu: cpu, stop: make(chan struct{})}
	if dur < w.win {
		w.win = dur
	}
	w.n = max(1, int(dur/w.win))
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		for i := 0; i <= w.n; i++ {
			select {
			case <-time.After(time.Until(w.start.Add(time.Duration(i) * w.win))):
			case <-w.stop:
				return
			}
			c := w.cpu()
			w.mu.Lock()
			w.marks = append(w.marks, c)
			w.mu.Unlock()
		}
	}()
	return w
}

// add records one completion; safe for concurrent use.
func (w *windows) add(c completion) {
	w.mu.Lock()
	w.done = append(w.done, c)
	w.mu.Unlock()
}

// addSpread records frames processed evenly over [from, to], so a long
// batch operation does not land whole in the window it ends in.
func (w *windows) addSpread(from, to time.Time, frames int64) {
	const parts = 16
	step := to.Sub(from) / parts
	for k := int64(0); k < parts; k++ {
		n := frames*(k+1)/parts - frames*k/parts
		w.add(completion{at: from.Add(step*time.Duration(k) + step/2), frames: n})
	}
}

// finish stops the CPU reader and returns the favourable deciles of
// the per-window throughput, latency p50 and p90, and CPU per frame.
// Windows with no completed frames are skipped. A phase that ran its
// full length waits for the reader's last mark, which a busy scheduler
// may deliver after the phase's loop has already seen the deadline;
// only a phase that ended early stops the reader.
func (w *windows) finish() (fps, p50, p90, cpuPerFrame float64, err error) {
	if time.Now().Before(w.start.Add(time.Duration(w.n) * w.win)) {
		close(w.stop)
	}
	w.wg.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.marks) < w.n+1 {
		return 0, 0, 0, 0, fmt.Errorf("phase ended after %d of %d windows", len(w.marks)-1, w.n)
	}
	frames := make([]int64, w.n)
	lats := make([][]float64, w.n)
	for _, c := range w.done {
		i := int(c.at.Sub(w.start) / w.win)
		if i < 0 || i >= w.n {
			continue
		}
		frames[i] += c.frames
		lats[i] = append(lats[i], c.lat...)
	}
	var fpsW, p50W, p90W, cpuW []float64
	for i := 0; i < w.n; i++ {
		if frames[i] > 0 {
			fpsW = append(fpsW, float64(frames[i])/w.win.Seconds())
			cpuW = append(cpuW, float64((w.marks[i+1]-w.marks[i]).Nanoseconds())/float64(frames[i]))
		}
		if len(lats[i]) > 0 {
			p50W = append(p50W, quantile(lats[i], 0.5))
			p90W = append(p90W, quantile(lats[i], 0.9))
		}
	}
	if len(fpsW) == 0 || len(p50W) == 0 {
		return 0, 0, 0, 0, fmt.Errorf("no window completed any work")
	}
	return bestDecile(fpsW, true), bestDecile(p50W, false), bestDecile(p90W, false), bestDecile(cpuW, false), nil
}

// taskCPU sums the on-CPU time of every thread of a live process from
// /proc/<pid>/task/*/schedstat, at nanosecond resolution.
func taskCPU(pid int) time.Duration {
	paths, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	var total int64
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		if ns, err := strconv.ParseInt(f[0], 10, 64); err == nil {
			total += ns
		}
	}
	return time.Duration(total)
}
