package main

import (
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"ubiqos/internal/device"
	"ubiqos/internal/domain"
	"ubiqos/internal/experiments"
	"ubiqos/internal/spec"
	"ubiqos/internal/wire"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		q      float64
		n      int
		wantOK bool
	}{
		{0.95, 199, false}, {0.95, 200, true}, {0.80, 49, false}, {0.80, 50, true}, {0.95, 0, false},
	} {
		_, err := tail(seq(tc.n), tc.q)
		if (err == nil) != tc.wantOK {
			t.Errorf("tail(%d samples, q=%g): err=%v, want ok=%v", tc.n, tc.q, err, tc.wantOK)
		}
	}
	if v, err := tail(seq(200), 0.95); err != nil || math.Abs(v-190.05) > 1e-9 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190.05", v, err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(values, n=4) on the same inputs.
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if got := spread(seq(10)); got != 1 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

// fakeProcess is a process that burns one CPU until busyUntil, on a
// fake clock that the settler's sleeps advance.
type fakeProcess struct {
	now       time.Time
	start     time.Time
	busyUntil time.Duration
}

func (f *fakeProcess) cpu() (time.Duration, error) {
	el := f.now.Sub(f.start)
	if el > f.busyUntil {
		el = f.busyUntil
	}
	return el, nil
}

func (f *fakeProcess) settler() *settler {
	s := defaultSettler(f.cpu)
	s.now = func() time.Time { return f.now }
	s.sleep = func(d time.Duration) { f.now = f.now.Add(d) }
	return s
}

func TestSettlerWaitsOutTheBurst(t *testing.T) {
	f := &fakeProcess{now: time.Unix(0, 0), start: time.Unix(0, 0), busyUntil: 50 * time.Millisecond}
	wall, used, err := f.settler().wait()
	if err != nil {
		t.Fatal(err)
	}
	if used != 50*time.Millisecond {
		t.Errorf("burst CPU = %v, want 50ms", used)
	}
	if wall < 55*time.Millisecond || wall > 57*time.Millisecond {
		t.Errorf("settled after %v, want the 50ms burst plus the 5ms quiet window", wall)
	}
}

func TestSettlerQuietProcessReturnsAfterOneWindow(t *testing.T) {
	f := &fakeProcess{now: time.Unix(0, 0), start: time.Unix(0, 0)}
	wall, used, err := f.settler().wait()
	if err != nil || used != 0 || wall != 5*time.Millisecond {
		t.Errorf("quiet process: wall=%v used=%v err=%v, want 5ms, 0, nil", wall, used, err)
	}
}

func TestSettlerGivesUpOnABusyProcess(t *testing.T) {
	f := &fakeProcess{now: time.Unix(0, 0), start: time.Unix(0, 0), busyUntil: time.Hour}
	if _, _, err := f.settler().wait(); err == nil {
		t.Error("a process that never goes quiet settled")
	}
}

func TestSettlerPassesCPUErrors(t *testing.T) {
	boom := errors.New("gone")
	s := defaultSettler(func() (time.Duration, error) { return 0, boom })
	if _, _, err := s.wait(); !errors.Is(err, boom) {
		t.Errorf("err = %v, want %v", err, boom)
	}
}

func TestFig5SpaceParsesAndIsDeterministic(t *testing.T) {
	text, apps, err := fig5Space(7)
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := fig5Space(7)
	if err != nil {
		t.Fatal(err)
	}
	if text != again {
		t.Error("the same seed generated two different space files")
	}
	if other, _, _ := fig5Space(8); other == text {
		t.Error("seeds 7 and 8 generated the same space file")
	}
	dom, err := spec.LoadSpace(text, domain.Options{Scale: scale})
	if err != nil {
		t.Fatalf("generated space does not parse: %v", err)
	}
	defer dom.Close()
	nodes := 0
	for _, app := range apps {
		nodes += len(app.Nodes())
	}
	if got := dom.Registry.Len(); got != nodes {
		t.Errorf("registry holds %d instances, want one per graph node (%d)", got, nodes)
	}
	// Class-normalized capacities are the paper's Fig 5 devices.
	want := map[string][2]float64{"desktop": {256, 300}, "laptop": {128, 100}, "pda": {32, 50}}
	for id, c := range want {
		d := dom.Devices.Get(device.ID(id))
		if d == nil {
			t.Fatalf("no device %s", id)
		}
		if got := d.Capacity(); got[0] != c[0] || got[1] != c[1] {
			t.Errorf("%s capacity %v, want %v", id, got, c)
		}
	}
	if got := dom.Links.Available("desktop", "laptop"); got != 50 {
		t.Errorf("desktop-laptop bandwidth %v, want 50", got)
	}
}

func TestChurnStreamRepeats(t *testing.T) {
	draw := func() []Op {
		c := newChurn(3, 1)
		var ops []Op
		for op, ok := c.next(); ok; op, ok = c.next() {
			ops = append(ops, op)
			c.done(op, op.Kind != "start" || op.App != 2) // app 2 never fits
		}
		return ops
	}
	a, b := draw(), draw()
	if len(a) != len(b) {
		t.Fatalf("episode lengths differ: %d vs %d", len(a), len(b))
	}
	starts := map[int]int{}
	for _, op := range a {
		if op.Kind == "start" {
			starts[op.App]++
		}
	}
	for k := 0; k < fig5Apps; k++ {
		if starts[k] != 2 {
			t.Errorf("app %d started %d times in an episode, want 2", k, starts[k])
		}
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func audioPlacement(player, server string, extra map[string]string) *wire.SessionInfo {
	p := map[string]string{"server": server, "player": player}
	for k, v := range extra {
		p[k] = v
	}
	return &wire.SessionInfo{ID: "s1", Placement: p, DOT: `"tc0:server-player" [label="mpeg2wav-1"]`}
}

func TestGateChecksPlacement(t *testing.T) {
	app := experiments.AudioOnDemandApp()
	devs := map[string]bool{"desktop1": true, "desktop2": true, "desktop3": true, "jornada": true}
	tc := map[string]string{"tc0:server-player": "jornada"}
	for _, c := range []struct {
		name   string
		client string
		info   *wire.SessionInfo
		errHas string
	}{
		{"good desktop", "desktop2", audioPlacement("desktop2", "desktop1", nil), ""},
		{"good PDA", "jornada", audioPlacement("jornada", "desktop1", tc), ""},
		{"player off the client", "desktop2", audioPlacement("desktop3", "desktop1", nil), "pinned to desktop2"},
		{"server off its pin", "desktop2", audioPlacement("desktop2", "desktop3", nil), "pinned to desktop1"},
		{"unknown device", "desktop2", audioPlacement("desktop2", "desktop1", map[string]string{"x": "mars"}), "unknown device"},
		{"PDA without transcoder", "jornada", audioPlacement("jornada", "desktop1", nil), "transcoder"},
		{"node not placed", "desktop2", &wire.SessionInfo{ID: "s1", Placement: map[string]string{"server": "desktop1"}}, "player not placed"},
	} {
		err := checkPlacement(app, c.client, c.info, devs)
		if c.errHas == "" && err != nil {
			t.Errorf("%s: rejected: %v", c.name, err)
		}
		if c.errHas != "" && (err == nil || !strings.Contains(err.Error(), c.errHas)) {
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.errHas)
		}
	}
}

func TestGateChecksReleasedReservations(t *testing.T) {
	ok := []wire.DeviceInfo{{ID: "ws1", Capacity: []float64{512, 600}, Available: []float64{512, 600}}}
	if err := releasedDevices(ok); err != nil {
		t.Errorf("all released: %v", err)
	}
	rounded := []wire.DeviceInfo{{ID: "desktop", Capacity: []float64{256, 300}, Available: []float64{255.9999999999997, 300}}}
	if err := releasedDevices(rounded); err != nil {
		t.Errorf("float rounding residue flagged as a leak: %v", err)
	}
	leaked := []wire.DeviceInfo{{ID: "ws1", Capacity: []float64{512, 600}, Available: []float64{511.999, 600}}}
	if err := releasedDevices(leaked); err == nil {
		t.Error("a leaked reservation passed the gate")
	}
}

func TestRoundSigHidesSummationOrder(t *testing.T) {
	x, y, z := 0.1, 0.2, 0.3
	fwd, back := (x+y)+z, (z+y)+x // 0.6000000000000001 and 0.6
	if fwd == back {
		t.Fatal("expected the two orders to round differently")
	}
	if roundSig(fwd, 9) != roundSig(back, 9) {
		t.Errorf("sums in two orders differ after rounding: %v vs %v", fwd, back)
	}
}

func TestProcessCPUClockAdvances(t *testing.T) {
	c0, err := processCPUClock(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 20*time.Millisecond; x++ {
	}
	c1, err := processCPUClock(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if d := c1 - c0; d < 10*time.Millisecond || d > time.Second {
		t.Errorf("20 ms of spinning advanced the CPU clock by %v (%d spins)", d, x)
	}
}
