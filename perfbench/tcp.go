package main

import (
	"fmt"
	"sync"
	"time"

	"ubiqos/internal/buildinfo"
	"ubiqos/internal/ledger"
	"ubiqos/internal/wire"
)

// setupBoots is how many times a run boots the daemon to time set-up.
const setupBoots = 9

// tcpResult is what the TCP run measured.
type tcpResult struct {
	setup    []float64 // seconds per boot
	lat      map[string][]float64
	out      outcome
	ops      int
	elapsed  time.Duration
	cpu      time.Duration
	rssMB    float64
	settleMs []float64
	burstMs  []float64
	degraded float64
	version  buildinfo.Info
	rttUs    []float64
	// episodes holds each timed episode's outcome.
	episodes []outcome
}

// segments is how many of the set-up boots also host a timed segment
// of dur/segments: the process a run lands on (its heap layout, GC
// pacing) moves fig5-churn's latencies by up to a fifth from one daemon
// to the next, and pooling three daemons averages that out.
const segments = 3

// runTCP boots the daemon setupBoots times, timing each boot's cold
// path; the last segments boots are each warmed up and driven for
// dur/segments, and every output is checked.
func runTCP(w *workloadSpec, in *inputs, seed int64, dur time.Duration, bin string) (*tcpResult, error) {
	res := &tcpResult{lat: map[string][]float64{}}
	ids := &sessionNamer{}
	var rss []float64
	for b := 0; b < setupBoots; b++ {
		t0 := time.Now()
		d, err := bootDaemon(bin, in.daemonArgs(w)...)
		if err != nil {
			return nil, err
		}
		err = func() error {
			defer d.stop()
			c, err := dial(d.addr)
			if err != nil {
				return err
			}
			defer c.Close()
			// The cold path: first discovery, plan and download of each app.
			drv := newRunner(c.Call, in.apps, w.devices)
			for k := range in.apps.graphs {
				id := ids.next()
				if !drv.do(Op{Kind: "start", Session: id, App: k, Device: w.home}) {
					return fmt.Errorf("set-up: first start of app %d failed", k)
				}
				drv.do(Op{Kind: "stop", Session: id})
			}
			res.setup = append(res.setup, time.Since(t0).Seconds())
			if drv.gateErr != nil {
				return drv.gateErr
			}
			if b < setupBoots-segments {
				return nil
			}
			if err := res.segment(w, in, seed, d, c, ids, dur/segments); err != nil {
				return err
			}
			r, err := d.peakRSSMB()
			rss = append(rss, r)
			if err == nil && b == setupBoots-1 {
				err = res.collect(c)
			}
			return err
		}()
		if err != nil {
			return nil, err
		}
	}
	res.rssMB = median(rss)
	for _, l := range res.lat {
		res.ops += len(l)
	}
	return res, nil
}

// segment warms a booted daemon up, drives it for dur and checks that
// every reservation was released.
func (res *tcpResult) segment(w *workloadSpec, in *inputs, seed int64, d *daemon, c *wire.Client, ids *sessionNamer, dur time.Duration) error {
	drv := newRunner(c.Call, in.apps, w.devices)
	var settle func()
	var settleErr error
	if w.settle {
		s := defaultSettler(d.cpuTime)
		settle = func() {
			wall, used, err := s.wait()
			if err != nil && settleErr == nil {
				settleErr = err
			}
			if drv.timing {
				res.settleMs = append(res.settleMs, ms(wall))
				res.burstMs = append(res.burstMs, ms(used))
			}
		}
	}
	// Warm-up: fill the daemon's bounded stores before timing.
	for i := 0; i < w.warm; i++ {
		drv.episode(w, seed, warmEpisode+i, ids, settle)
	}
	if drv.gateErr != nil {
		return fmt.Errorf("warm-up: %w", drv.gateErr)
	}

	cpu0, err := d.cpuTime()
	if err != nil {
		return err
	}
	drv.timing = true
	var rd *runner
	var wg sync.WaitGroup
	stop := make(chan struct{})
	if w.reader {
		rc, err := dial(d.addr)
		if err != nil {
			return err
		}
		defer rc.Close()
		rd = newRunner(rc.Call, in.apps, w.devices)
		rd.timing = true
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd.reader(seed, stop)
		}()
	}
	// Episode indices run on across segments, so each segment meets new
	// portals and reads; the first segment's first episodes give the
	// outcome metrics.
	first := len(res.episodes)
	t0 := time.Now()
	for i := 0; time.Since(t0) < dur || i < outcomeEpisodes; i++ {
		res.episodes = append(res.episodes, drv.episode(w, seed, first+i, ids, settle))
	}
	close(stop)
	wg.Wait()
	res.elapsed += time.Since(t0)
	cpu1, err := d.cpuTime()
	if err != nil {
		return err
	}
	drv.timing = false
	res.cpu += cpu1 - cpu0
	for k, l := range drv.lat {
		res.lat[k] = append(res.lat[k], l...)
	}
	res.out.add(drv.out)
	if rd != nil {
		res.lat["read"] = append(res.lat["read"], rd.lat["read"]...)
		res.out.add(rd.out)
		if rd.gateErr != nil {
			return rd.gateErr
		}
	}
	if drv.gateErr != nil {
		return drv.gateErr
	}
	if settleErr != nil {
		return settleErr
	}
	return checkReleased(c.Call)
}

// collect reads the run's closing views: scorecards, build identity,
// and the round-trip time of an empty request.
func (res *tcpResult) collect(c *wire.Client) error {
	resp, err := c.Call(wire.Request{Op: wire.OpScorecard})
	if err != nil {
		return err
	}
	res.degraded = degradedShare(resp.Scorecards)
	if resp, err = c.Call(wire.Request{Op: wire.OpVersion}); err != nil {
		return err
	}
	if resp.Version != nil {
		res.version = *resp.Version
	}
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := c.Call(wire.Request{Op: wire.OpPing}); err != nil {
			return err
		}
		res.rttUs = append(res.rttUs, us(time.Since(t0)))
	}
	return nil
}

// degradedShare is the share of admitted sessions that ran degraded,
// over every class's scorecard.
func degradedShare(cards []ledger.Scorecard) float64 {
	var sessions, degraded float64
	for _, sc := range cards {
		sessions += float64(sc.Sessions)
		degraded += sc.DegradedRatio * float64(sc.Sessions)
	}
	if sessions == 0 {
		return 0
	}
	return degraded / sessions
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// metrics are the end-to-end metrics of the run. A tail percentile
// without enough samples beyond it is an error, not a number.
func (res *tcpResult) metrics(tailQ float64) (map[string]metric, error) {
	m := map[string]metric{
		"setup_s":             {median(res.setup), "s"},
		"ops_per_s":           {float64(res.ops) / res.elapsed.Seconds(), "1/s"},
		"ok_ratio":            {firstN(res.episodes, outcomeEpisodes).okRatio(), "ratio"},
		"full_qos_ratio":      {1 - res.degraded, "ratio"},
		"placement_cost_mean": {roundSig(firstN(res.episodes, outcomeEpisodes).costMean(), 9), "cost"},
		"cpu_ms_per_op":       {ms(res.cpu) / float64(res.ops), "ms"},
		"rss_mb":              {res.rssMB, "MiB"},
	}
	for _, kind := range []string{"start", "switch", "stop", "read"} {
		m[kind+"_p50_ms"] = metric{median(res.lat[kind]), "ms"}
		if kind == "stop" {
			continue
		}
		v, err := tail(res.lat[kind], tailQ)
		if err != nil {
			return nil, fmt.Errorf("%s tail: %w", kind, err)
		}
		m[kind+"_tail_ms"] = metric{v, "ms"}
	}
	return m, nil
}

// summary is a one-line human-readable digest of the run for stderr.
func (res *tcpResult) summary() string {
	var b []byte
	for _, k := range []string{"start", "switch", "stop", "read"} {
		l := res.lat[k]
		b = fmt.Appendf(b, "%s n=%d p50=%.3fms ", k, len(l), median(l))
	}
	b = fmt.Appendf(b, "settle n=%d p50=%.1fms burst p50=%.1fms setup=%v ok=%d/%d cpu=%v",
		len(res.settleMs), median(res.settleMs), median(res.burstMs), res.setup, res.out.OK, res.out.Attempted, res.cpu)
	return string(b)
}
