package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"ubiqos/internal/composer"
	"ubiqos/internal/core"
	"ubiqos/internal/metrics"
	"ubiqos/internal/wire"
)

// caller is the transport an op stream runs over: wire.Client.Call over
// TCP, or a wire.Server's Handle in process.
type caller func(wire.Request) (wire.Response, error)

func handleCaller(s *wire.Server) caller {
	return func(req wire.Request) (wire.Response, error) {
		resp := s.Handle(req)
		if !resp.OK {
			return resp, errors.New(resp.Error)
		}
		return resp, nil
	}
}

// maxFrames bounds every emulated source, so a deployed graph streams one
// short burst and then idles.
const maxFrames = 1

// request builds the wire request for an op.
func request(op Op, apps appSet) wire.Request {
	switch op.Kind {
	case "start":
		return wire.Request{Op: wire.OpStart, SessionID: op.Session, App: apps.graphs[op.App],
			UserQoS: apps.qos[op.App], ClientDevice: op.Device, MaxFrames: maxFrames}
	case "switch":
		return wire.Request{Op: wire.OpSwitch, SessionID: op.Session, ToDevice: op.Device}
	case "stop":
		return wire.Request{Op: wire.OpStop, SessionID: op.Session}
	}
	req := wire.Request{Op: op.Read}
	switch op.Read {
	case wire.OpSession:
		req.SessionID = op.Session
	case wire.OpTimeseries:
		// A bounded window: the 900-sample rings take 15 min to fill.
		req.Metric, req.Window = metrics.SpaceHeadroom, "10s"
	}
	return req
}

// outcome tallies the results that must repeat exactly on a seed.
type outcome struct {
	Attempted, OK int
	// Placed counts successful starts and switches; CostSum sums their
	// placement cost.
	Placed  int
	CostSum float64
}

func (o outcome) okRatio() float64 { return ratio(o.OK, o.Attempted) }

func (o outcome) costMean() float64 {
	if o.Placed == 0 {
		return 0
	}
	return o.CostSum / float64(o.Placed)
}

func (o *outcome) add(p outcome) {
	o.Attempted += p.Attempted
	o.OK += p.OK
	o.Placed += p.Placed
	o.CostSum += p.CostSum
}

func (o outcome) minus(p outcome) outcome {
	return outcome{o.Attempted - p.Attempted, o.OK - p.OK, o.Placed - p.Placed, o.CostSum - p.CostSum}
}

// firstN sums the first n episode outcomes.
func firstN(eps []outcome, n int) outcome {
	var o outcome
	for _, e := range eps[:min(n, len(eps))] {
		o.add(e)
	}
	return o
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// session is what the gate remembers of a live session.
type session struct {
	app    *composer.AbstractGraph
	client string
}

// runner runs ops over a caller, timing each one and checking every
// placement it is handed against the gate.
type runner struct {
	call    caller
	apps    appSet
	devices map[string]bool
	live    map[string]session
	lat     map[string][]float64 // milliseconds per op kind
	out     outcome
	timing  bool
	gateErr error
	// hook, when set, wraps every call (the traced replay's spans).
	hook opHook
}

func newRunner(call caller, apps appSet, devices []string) *runner {
	d := &runner{call: call, apps: apps, devices: map[string]bool{}, live: map[string]session{},
		lat: map[string][]float64{}}
	for _, id := range devices {
		d.devices[id] = true
	}
	return d
}

// do runs one op and reports whether it succeeded.
func (d *runner) do(op Op) bool {
	req := request(op, d.apps)
	t0 := time.Now()
	var resp wire.Response
	var err error
	if d.hook != nil {
		resp, err = d.hook(op, req, d.call)
	} else {
		resp, err = d.call(req)
	}
	took := time.Since(t0)
	if d.timing {
		kind := op.Kind
		d.lat[kind] = append(d.lat[kind], float64(took)/float64(time.Millisecond))
		d.out.Attempted++
		if err == nil {
			d.out.OK++
		}
	}
	if err != nil {
		if op.Kind == "read" && d.gateErr == nil {
			d.gateErr = fmt.Errorf("read %s: %w", op.Read, err) // no read may fail
		}
		if op.Kind == "switch" {
			delete(d.live, op.Session) // the old graph was torn down
		}
		return false
	}
	switch op.Kind {
	case "start", "switch":
		s := d.live[op.Session]
		if op.Kind == "start" {
			s = session{app: d.apps.graphs[op.App]}
		}
		s.client = op.Device
		d.live[op.Session] = s
		if d.gateErr == nil {
			if resp.Session == nil {
				d.gateErr = fmt.Errorf("%s %s: no session info", op.Kind, op.Session)
			} else {
				d.gateErr = checkPlacement(s.app, s.client, resp.Session, d.devices)
			}
		}
		if d.timing && resp.Session != nil {
			d.out.Placed++
			d.out.CostSum += resp.Session.Cost
		}
	case "stop":
		delete(d.live, op.Session)
	}
	return true
}

// checkPlacement is the per-op gate: every node of the session's graph is
// placed on a known device, pinned nodes sit on their pins, and a portal
// on the PDA gets the MPEG→WAV transcoder.
func checkPlacement(app *composer.AbstractGraph, client string, info *wire.SessionInfo, devices map[string]bool) error {
	for id, dev := range info.Placement {
		if !devices[dev] {
			return fmt.Errorf("session %s: node %s placed on unknown device %q", info.ID, id, dev)
		}
	}
	for _, n := range app.Nodes() {
		dev, ok := info.Placement[string(n.ID)]
		if !ok {
			return fmt.Errorf("session %s: node %s not placed", info.ID, n.ID)
		}
		want := n.Pin
		if want == core.ClientRole {
			want = client
		}
		if want != "" && dev != want {
			return fmt.Errorf("session %s: node %s pinned to %s but placed on %s", info.ID, n.ID, want, dev)
		}
	}
	if client == "jornada" && !hasTranscoder(info, "mpeg2wav") {
		return fmt.Errorf("session %s: PDA portal without the MPEG→WAV transcoder", info.ID)
	}
	return nil
}

// hasTranscoder reports whether the placed graph carries an inserted
// transcoder bound to the named instance.
func hasTranscoder(info *wire.SessionInfo, instance string) bool {
	for id := range info.Placement {
		if strings.HasPrefix(id, "tc") && strings.Contains(info.DOT, instance) {
			return true
		}
	}
	return false
}

// stopAll stops every live session (closing an episode).
func (d *runner) stopAll() {
	ids := make([]string, 0, len(d.live))
	for id := range d.live {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		d.do(Op{Kind: "stop", Session: id})
	}
}

// checkReleased is the end-of-run gate: with no session live, every
// device's availability is back at its capacity.
func checkReleased(call caller) error {
	resp, err := call(wire.Request{Op: wire.OpListDevices})
	if err != nil {
		return err
	}
	return releasedDevices(resp.Devices)
}

// releasedDevices checks availability against capacity up to float64
// rounding: reserving and releasing in another order leaves residues
// around 1e-13 on a 256 MB device, far below what any component reserves.
func releasedDevices(devs []wire.DeviceInfo) error {
	for _, d := range devs {
		for i := range d.Capacity {
			if i >= len(d.Available) || math.Abs(d.Available[i]-d.Capacity[i]) > 1e-9*math.Max(1, d.Capacity[i]) {
				return fmt.Errorf("device %s: available %v != capacity %v after stopping every session", d.ID, d.Available, d.Capacity)
			}
		}
	}
	return nil
}

// episode runs episode i of a workload's writer stream and leaves the
// space empty. settle, when set, runs before every op. It returns the
// episode's outcome (counted only while timing).
func (d *runner) episode(w *workloadSpec, seed int64, i int, ids *sessionNamer, settle func()) outcome {
	before := d.out
	switch w.name {
	case "fig5-churn":
		c := newChurn(seed, i)
		c.ids.n = ids.n
		for op, ok := c.next(); ok; op, ok = c.next() {
			if settle != nil {
				settle()
			}
			c.done(op, d.do(op))
		}
		ids.n = c.ids.n
		d.stopAll()
	default:
		for _, op := range cycle(w.name, ids) {
			d.do(op)
		}
	}
	return d.out.minus(before)
}

// warmEpisode is the index of warm-up's first episode, far from the
// timed episodes' 0, 1, 2, ...
const warmEpisode = 1 << 20

// outcomeEpisodes is how many timed episodes the outcome metrics cover:
// a fixed count, so they repeat exactly however many episodes fit in
// the run.
const outcomeEpisodes = 2

// reader polls the operator views until stop is closed.
func (d *runner) reader(seed int64, stop <-chan struct{}) {
	rng := rand.New(rand.NewSource(seed + 1))
	for {
		for _, view := range readerCycle(rng) {
			select {
			case <-stop:
				return
			default:
			}
			d.do(Op{Kind: "read", Read: view})
		}
	}
}
