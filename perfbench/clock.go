package main

import (
	"bytes"
	"os"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuNow returns the CPU time the process has used so far, user plus
// system, over all its threads. Set-up and the layer spans are timed in
// CPU time: on a shared virtual machine the host can withhold a third of
// the wall clock from the guest for minutes at a time, which moves
// wall-clock figures for the same input by up to 2x, while CPU time
// excludes the stolen time. CPU time sums over threads, so it cannot see
// parallel speedup; txns_per_s is timed in wall-clock time less the
// stolen time (see maxStolen) for that reason.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF and a valid pointer
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stolenNow returns, per CPU, the time the hypervisor has withheld from
// the guest since boot: the steal column of each cpuN line of /proc/stat,
// in its fixed unit of 1/100 s. It is nil where /proc/stat is missing or
// has no steal column.
func stolenNow() []time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	var out []time.Duration
	for _, line := range bytes.Split(b, []byte("\n")) {
		f := bytes.Fields(line) // cpuN user nice system idle iowait irq softirq steal ...
		if len(f) < 9 || len(f[0]) <= 3 || !bytes.HasPrefix(f[0], []byte("cpu")) {
			continue
		}
		ticks, err := strconv.ParseInt(string(f[8]), 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, time.Duration(ticks)*10*time.Millisecond)
	}
	return out
}

// maxStolen returns the most time stolen from any one CPU between two
// stolenNow readings, 0 when either is missing. A CPU accrues steal only
// while it has work to run, so a run that keeps one CPU busy is delayed
// by that CPU's steal, and one that keeps both busy and joins them at
// every round by about the larger of the two.
func maxStolen(before, after []time.Duration) time.Duration {
	if len(before) != len(after) {
		return 0
	}
	var m time.Duration
	for i := range before {
		m = max(m, after[i]-before[i])
	}
	return m
}

// rssSampler tracks the process's peak resident set between resets by
// reading /proc/self/statm every 2ms.
type rssSampler struct {
	peak atomic.Int64 // bytes
	stop chan struct{}
	done chan struct{}
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return // no procfs: the peak stays 0 and measure reports the error
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return
	}
	rss := pages * int64(os.Getpagesize())
	for {
		old := s.peak.Load()
		if rss <= old || s.peak.CompareAndSwap(old, rss) {
			return
		}
	}
}

// reset returns the peak since the last reset in bytes and restarts
// tracking from the current resident set.
func (s *rssSampler) reset() int64 {
	s.sample()
	p := s.peak.Swap(0)
	s.sample()
	return p
}

// close stops the sampling goroutine and waits for it to exit.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}
