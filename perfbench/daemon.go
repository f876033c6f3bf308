package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// daemon is one qosconfigd process booted for a run.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has been reaped
}

// bootDaemon execs the daemon binary with args on an ephemeral loopback
// port and returns once it reports the address it serves on.
func bootDaemon(bin string, args ...string) (*daemon, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-http", "", "-log", "error"}, args...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("boot %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 2) // the address, then the exit notice
	go func() {
		// Read the boot log for the bound address, then keep draining so
		// the daemon never blocks on a full pipe.
		sc := bufio.NewScanner(stderr)
		var tail []string
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, " serving on "); i >= 0 && !sent {
				if f := strings.Fields(line[i+len(" serving on "):]); len(f) > 0 {
					addr <- f[0]
					sent = true
				}
			}
			if len(tail) < 20 {
				tail = append(tail, line)
			}
		}
		io.Copy(io.Discard, stderr)
		cmd.Wait()
		close(d.done)
		addr <- "exited: " + strings.Join(tail, " | ")
	}()
	select {
	case a := <-addr:
		if strings.HasPrefix(a, "exited: ") {
			return nil, fmt.Errorf("daemon %s", a)
		}
		d.addr = a
		return d, nil
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("daemon did not report its address within 30s")
	}
}

// stop terminates the daemon and waits until it has exited.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// cpuTime is the daemon's user+system CPU time, read from its
// process-wide CPU clock: exact to the nanosecond, including the time of
// threads running at the moment of the read. (Per-thread schedstat
// lags a running thread by up to a scheduler tick.)
func (d *daemon) cpuTime() (time.Duration, error) { return processCPUClock(d.pid()) }

// processCPUClock reads a process's CPU clock, pid's
// MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED) in the kernel's ABI.
func processCPUClock(pid int) (time.Duration, error) {
	clock := uintptr(uint32((^int32(pid))<<3 | 2))
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("daemon CPU clock: %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}

// peakRSSMB is the daemon's high-water resident set size (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) < 2 {
				break
			}
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// settler decides when a process has gone quiet: its CPU time advanced
// by at most idle over the last quiet interval. Polls are poll apart;
// the wait gives up after limit.
type settler struct {
	poll, quiet, idle, limit time.Duration
	cpu                      func() (time.Duration, error)
	now                      func() time.Time
	sleep                    func(time.Duration)
}

// defaultSettler polls every millisecond (in practice the timer floor
// makes it about two) and calls the daemon quiet once it used at most
// 0.5 ms of CPU over the last 5 ms.
func defaultSettler(cpu func() (time.Duration, error)) *settler {
	return &settler{poll: time.Millisecond, quiet: 5 * time.Millisecond, idle: time.Millisecond / 2,
		limit: 10 * time.Second, cpu: cpu, now: time.Now, sleep: time.Sleep}
}

// wait blocks until the process is quiet and returns the wall time spent
// and the CPU the process used meanwhile.
func (s *settler) wait() (wall, used time.Duration, err error) {
	type sample struct {
		at  time.Time
		cpu time.Duration
	}
	start := s.now()
	c0, err := s.cpu()
	if err != nil {
		return 0, 0, err
	}
	window := []sample{{start, c0}}
	for {
		s.sleep(s.poll)
		now := s.now()
		c, err := s.cpu()
		if err != nil {
			return 0, 0, err
		}
		window = append(window, sample{now, c})
		// Drop samples older than the quiet interval, keeping the newest
		// one at or before its start as the baseline.
		for len(window) > 1 && now.Sub(window[1].at) >= s.quiet {
			window = window[1:]
		}
		if now.Sub(window[0].at) >= s.quiet && c-window[0].cpu <= s.idle {
			return now.Sub(start), c - c0, nil
		}
		if now.Sub(start) > s.limit {
			return 0, 0, fmt.Errorf("process not quiet after %v", s.limit)
		}
	}
}
