package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"ubiqos/internal/checkpoint"
	"ubiqos/internal/composer"
	"ubiqos/internal/core"
	"ubiqos/internal/device"
	"ubiqos/internal/distributor"
	"ubiqos/internal/domain"
	"ubiqos/internal/graph"
	"ubiqos/internal/metrics"
	"ubiqos/internal/registry"
	"ubiqos/internal/repository"
	"ubiqos/internal/resource"
	rt "ubiqos/internal/runtime"
	"ubiqos/internal/wire"
)

// Traced-run sizes: how many cycles (or episodes of fig5-churn) each
// in-process replay runs, how many deploys get a shadow deploy (each
// fig5-churn one costs a media burst), and how often each view is read.
const (
	tracedCycles      = 60
	tracedEpisodes    = 1
	shadowDeploys     = 20
	shadowDeploysFig5 = 6
	readProbes        = 20
)

// span is one timed call into a layer. Spans of one op share Op; Parent
// is the index of the enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent int, fn func()) {
	i := t.begin(name, parent)
	fn()
	t.end(i)
}

// durations returns each span name's durations and self times (the
// span minus the part its children cover), in microseconds.
func (t *tracer) durations() (total, self map[string][]float64) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	total, self = map[string][]float64{}, map[string][]float64{}
	for i, s := range t.spans {
		d := s.End - s.Start
		total[s.Name] = append(total[s.Name], float64(d)/1e3)
		self[s.Name] = append(self[s.Name], float64(d-child[i])/1e3)
	}
	return total, self
}

// timedDiscovery is the registry seen through a span per lookup, so a
// shadow composition's discovery shows up as its children.
type timedDiscovery struct {
	reg    *registry.Registry
	tr     *tracer
	parent *int
}

func (d *timedDiscovery) Best(spec registry.Spec) *registry.Instance {
	i := d.tr.begin("registry.find", *d.parent)
	defer d.tr.end(i)
	return d.reg.Best(spec)
}

// heapAllocs reads the cumulative heap allocation count and bytes
// without stopping the world (runtime.ReadMemStats would, and would
// slow the call it brackets).
func heapAllocs() [2]uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return [2]uint64{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

// processCPU is this process's user+system CPU time.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// inproc is one in-process copy of the workload's space behind a
// wire.Server.
type inproc struct {
	dom *domain.Domain
	srv *wire.Server
	sup *core.Supervisor
}

func newInproc(w *workloadSpec, in *inputs) (*inproc, error) {
	dom, err := in.buildDomain(w)
	if err != nil {
		return nil, err
	}
	// As in the daemon, a recovery supervisor runs on the domain's bus.
	sup, err := core.NewSupervisor(dom.Configurator, core.SupervisorOptions{Bus: dom.Bus})
	if err != nil {
		dom.Close()
		return nil, err
	}
	srv, err := wire.NewServer(dom)
	if err != nil {
		sup.Stop()
		dom.Close()
		return nil, err
	}
	return &inproc{dom: dom, srv: srv, sup: sup}, nil
}

func (p *inproc) close() {
	p.sup.Stop()
	p.dom.Close()
}

// replay runs the workload's writer stream in process: the set-up's
// first start of each app, then n episodes. The returned runner holds the
// timed episodes' latencies and outcome.
func replay(w *workloadSpec, in *inputs, p *inproc, seed int64, n int, hook opHook) *runner {
	drv := newRunner(handleCaller(p.srv), in.apps, w.devices)
	drv.hook = hook
	ids := &sessionNamer{}
	for k := range in.apps.graphs {
		id := ids.next()
		drv.do(Op{Kind: "start", Session: id, App: k, Device: w.home})
		drv.do(Op{Kind: "stop", Session: id})
	}
	drv.timing = true
	var settle func()
	if w.settle {
		s := defaultSettler(processCPU)
		// A replay that fails to settle only blurs its timings; its
		// outcomes, which the gate compares, do not depend on them.
		settle = func() { _, _, _ = s.wait() }
	}
	for i := 0; i < n; i++ {
		drv.episode(w, seed, i, ids, settle)
	}
	drv.timing = false
	return drv
}

// layerRun collects the traced replay's spans and counters.
type layerRun struct {
	w      *workloadSpec
	in     *inputs
	p      *inproc
	tr     *tracer
	comp   *composer.Composer
	find   int // parent span for discovery lookups
	shadow *rt.Engine
	repo   *repository.Repository

	discoveries, corrections, composes int
	firstTry, configures               int
	mallocs, bytes                     uint64
	starts                             int
	burstMs, settleMs, dropped         []float64
	ensures                            []float64
	downloads                          int
	shadowed                           int
	gateErr                            error
}

// opHook lets the traced replay wrap every op; call runs the op itself.
type opHook func(op Op, req wire.Request, call func(wire.Request) (wire.Response, error)) (wire.Response, error)

// hook runs one op with spans around the wire, the op and the shadow
// calls into each layer on the op's real inputs. Shadow calls use their
// own composer, engine, checkpoint store and repository, and never touch
// the live plan cache or device reservations.
func (l *layerRun) hook(op Op, req wire.Request, call func(wire.Request) (wire.Response, error)) (wire.Response, error) {
	l.tr.op++
	root := l.tr.begin("op."+op.Kind, -1)
	defer l.tr.end(root)
	if op.Kind == "start" || op.Kind == "switch" {
		l.shadowConfigure(op, root)
	}

	// The server's side of the wire: decode, handle, encode.
	raw, err := json.Marshal(req)
	if err != nil {
		return wire.Response{}, err
	}
	var dec wire.Request
	l.tr.timed("wire.decode", root, func() { err = json.Unmarshal(raw, &dec) })
	if err != nil {
		return wire.Response{}, err
	}
	var a0, a1 [2]uint64
	if op.Kind == "start" {
		a0 = heapAllocs()
	}
	var resp wire.Response
	var cerr error
	l.tr.timed("wire.handle."+op.Kind, root, func() { resp, cerr = call(dec) })
	if op.Kind == "start" {
		a1 = heapAllocs()
		l.mallocs += a1[0] - a0[0]
		l.bytes += a1[1] - a0[1]
		l.starts++
	}
	l.tr.timed("wire.encode", root, func() { _, err = json.Marshal(resp) })
	if err != nil {
		return wire.Response{}, err
	}
	if op.Kind == "start" || op.Kind == "switch" {
		l.configures++
		if se := l.p.dom.Explain.Explain(op.Session); se != nil && len(se.Records) > 0 {
			if r := se.Records[len(se.Records)-1]; len(r.Attempts) > 0 && r.Attempts[0].Err == "" {
				l.firstTry++
			}
		}
		if cerr == nil {
			l.afterDeploy(op, root)
		}
	}
	return resp, cerr
}

// shadowConfigure replays the op's composition and placement, with the
// signature, load computation and (on a switch) the state handoff.
func (l *layerRun) shadowConfigure(op Op, root int) {
	dom := l.p.dom
	var req core.Request
	if op.Kind == "start" {
		req = core.Request{App: l.in.apps.graphs[op.App], UserQoS: l.in.apps.qos[op.App]}
	} else if s := dom.Configurator.Session(op.Session); s != nil {
		req = s.Request
		l.tr.timed("checkpoint.handoff", root, func() {
			store := checkpoint.NewStore()
			if err := store.Save(checkpoint.State{SessionID: op.Session, SizeMB: 0.5}); err == nil {
				_, err = store.Handoff(dom.Net, op.Session, string(s.ClientDevice), op.Device)
				l.noteErr(err)
			}
		})
	}
	req.ClientDevice = device.ID(op.Device)
	var attrs map[string]string
	if d := dom.Devices.Get(req.ClientDevice); d != nil {
		attrs = d.Attrs
	}
	var g *graph.Graph
	var rep *composer.Report
	var err error
	l.find = l.tr.begin("composer.compose", root)
	g, rep, err = l.comp.Compose(composer.Request{App: pinClient(req.App, op.Device), UserQoS: req.UserQoS,
		ClientAttrs: attrs, ClientDevice: op.Device})
	l.tr.end(l.find)
	if err != nil {
		return
	}
	l.composes++
	l.discoveries += rep.DiscoveryAttempts
	l.corrections += len(rep.Adjustments) + len(rep.Transcoders) + len(rep.Buffers)
	for _, n := range g.Nodes() {
		if n.Instance != "" {
			n.Resources = dom.Profiler.EstimateOr(n.Instance, n.Resources)
		}
	}
	up := dom.Devices.UpDevices()
	devs := make([]distributor.DeviceInfo, len(up))
	for i, d := range up {
		devs[i] = distributor.DeviceInfo{ID: d.ID, Avail: d.Available()}
	}
	w, _ := resource.NewWeights(0.3, 0.3, 0.4) // the domain default
	prob := &distributor.Problem{Graph: g, Devices: devs, Bandwidth: dom.Links.Available, Weights: w}
	var a distributor.Assignment
	l.tr.timed("distributor.place", root, func() { a, _, err = distributor.Heuristic(prob) })
	l.tr.timed("distributor.signature", root, func() { _, _ = distributor.Signature(prob) })
	if err != nil {
		return // the space is full; there are no loads to compute
	}
	l.tr.timed("distributor.loads", root, func() {
		prob.DeviceLoads(a)
		prob.LinkDemands(a)
	})
}

// afterDeploy settles the op's media burst, then replays the deploy on a
// shadow engine and, the first time each app is placed, the downloads.
func (l *layerRun) afterDeploy(op Op, root int) {
	s := defaultSettler(processCPU)
	wall, used, err := s.wait()
	l.noteErr(err)
	l.settleMs = append(l.settleMs, ms(wall))
	l.burstMs = append(l.burstMs, ms(used))
	active := l.p.dom.Configurator.Session(op.Session)
	if active == nil {
		return
	}
	l.dropped = append(l.dropped, float64(active.Runtime.Dropped()))
	limit := shadowDeploys
	if l.w.settle {
		limit = shadowDeploysFig5
	}
	if l.shadowed >= limit {
		return
	}
	l.shadowed++
	var sess *rt.Session
	l.tr.timed("runtime.deploy", root, func() {
		sess, err = l.shadow.Deploy(active.Graph, active.Placement, 0, maxFrames)
		if err == nil {
			err = sess.Start()
		}
	})
	if err != nil {
		l.noteErr(err)
		return
	}
	_, _, err = s.wait()
	l.noteErr(err)
	l.tr.timed("runtime.stop", root, sess.Stop)
	for _, n := range active.Graph.Nodes() {
		if n.Instance == "" {
			continue
		}
		t0 := time.Now()
		d, err := l.repo.Ensure(string(active.Placement[n.ID]), n.Instance)
		l.noteErr(err)
		l.ensures = append(l.ensures, us(time.Since(t0)))
		if d > 0 {
			l.downloads++
		}
	}
}

func (l *layerRun) noteErr(err error) {
	if err != nil && l.gateErr == nil {
		l.gateErr = err
	}
}

// pinClient binds the client pin role to the portal device, as the
// configurator does before composing.
func pinClient(app *composer.AbstractGraph, client string) *composer.AbstractGraph {
	out := composer.NewAbstractGraph()
	for _, n := range app.Nodes() {
		cp := *n
		if cp.Pin == core.ClientRole {
			cp.Pin = client
		}
		out.MustAddNode(&cp)
	}
	for _, e := range app.Edges() {
		out.MustAddEdge(e.From, e.To, e.ThroughputMbps)
	}
	return out
}

// shadowRepository mirrors the live repository's catalog and installs
// as they stand, so shadow Ensure calls download exactly what the live
// one would.
func shadowRepository(dom *domain.Domain, devices []string) (*repository.Repository, error) {
	repo, err := repository.New(dom.Repo.Host, dom.Net)
	if err != nil {
		return nil, err
	}
	for _, inst := range dom.Registry.All() {
		if inst.SizeMB > 0 {
			if err := repo.Publish(repository.Package{Name: inst.Name, SizeMB: inst.SizeMB}); err != nil {
				return nil, err
			}
		}
		for _, d := range devices {
			if dom.Repo.Installed(d, inst.Name) {
				repo.MarkInstalled(d, inst.Name)
			}
		}
	}
	return repo, nil
}

// layerResult is the traced run's output.
type layerResult struct {
	metrics map[string]metric
	samples map[string]int
}

// runTraced replays the seed in process twice — untraced, then with
// spans and shadow calls — checks both replays' outcomes against the TCP
// run's, then probes the read views and the observability sinks.
func runTraced(w *workloadSpec, in *inputs, seed int64, tcp *tcpResult, dir string) (*layerResult, error) {
	n := tracedCycles
	if w.settle {
		n = tracedEpisodes
	}
	plain, err := newInproc(w, in)
	if err != nil {
		return nil, err
	}
	// The untraced replay settles after every deploy as the traced one
	// does, so the two differ only by the spans and shadow calls.
	var baseStarts []float64
	settleAfterDeploy := func(op Op, req wire.Request, call func(wire.Request) (wire.Response, error)) (wire.Response, error) {
		t0 := time.Now()
		resp, err := call(req)
		if op.Kind == "start" {
			baseStarts = append(baseStarts, us(time.Since(t0)))
		}
		if err == nil && (op.Kind == "start" || op.Kind == "switch") {
			_, _, _ = defaultSettler(processCPU).wait() // as in replay: only timings blur
		}
		return resp, err
	}
	base := replay(w, in, plain, seed, n, settleAfterDeploy)
	baseDegraded := inprocDegraded(plain)
	plain.close()
	if base.gateErr != nil {
		return nil, base.gateErr
	}

	p, err := newInproc(w, in)
	if err != nil {
		return nil, err
	}
	defer p.close()
	l := &layerRun{w: w, in: in, p: p, tr: &tracer{t0: time.Now()}}
	l.comp = composer.New(&timedDiscovery{reg: p.dom.Registry, tr: l.tr, parent: &l.find})
	if l.shadow, err = rt.NewEngine(scale, p.dom.Net); err != nil {
		return nil, err
	}
	if l.repo, err = shadowRepository(p.dom, w.devices); err != nil {
		return nil, err
	}
	cache0 := p.dom.PlanCache.Stats()
	var gc0, gc1 goruntime.MemStats
	goruntime.ReadMemStats(&gc0)
	traced := replay(w, in, p, seed, n, l.hook)
	goruntime.ReadMemStats(&gc1)
	cache1 := p.dom.PlanCache.Stats()
	if traced.gateErr != nil {
		return nil, traced.gateErr
	}
	if l.gateErr != nil {
		return nil, fmt.Errorf("traced run: %w", l.gateErr)
	}
	if err := checkReleased(handleCaller(p.srv)); err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	// Outcomes must repeat exactly: the TCP run's first n episodes, the
	// untraced and the traced replay.
	want := outcomeKey(firstN(tcp.episodes, n), tcp.degraded)
	for name, got := range map[string]string{
		"untraced replay": outcomeKey(base.out, baseDegraded),
		"traced replay":   outcomeKey(traced.out, inprocDegraded(p)),
	} {
		if got != want {
			return nil, fmt.Errorf("%s outcome %s differs from the TCP run's %s", name, got, want)
		}
	}

	total, self := l.tr.durations()
	ops := 0
	for _, v := range traced.lat {
		ops += len(v)
	}
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	p50 := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	put("wire.rtt_us", p50(tcp.rttUs), "us")
	put("wire.decode_us", p50(total["wire.decode"]), "us")
	put("wire.encode_us", p50(total["wire.encode"]), "us")
	for _, k := range []string{"start", "switch", "stop"} {
		put("wire.handle."+k+"_us", p50(total["wire.handle."+k]), "us")
	}
	put("composer.compose_us", p50(total["composer.compose"]), "us")
	put("composer.compose_self_us", p50(self["composer.compose"]), "us")
	put("composer.discoveries_per_op", perOp(l.discoveries, l.composes), "count")
	put("composer.corrections_per_op", perOp(l.corrections, l.composes), "count")
	put("registry.find_us", p50(total["registry.find"]), "us")
	put("distributor.place_us", p50(total["distributor.place"]), "us")
	put("distributor.signature_us", p50(total["distributor.signature"]), "us")
	put("distributor.loads_us", p50(total["distributor.loads"]), "us")
	hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
	put("distributor.plancache_hit_ratio", ratio(int(hits), int(hits+misses)), "ratio")
	put("core.first_try_ratio", ratio(l.firstTry, l.configures), "ratio")
	put("core.allocs_per_configure", float64(l.mallocs)/float64(max(l.starts, 1)), "count")
	put("core.bytes_per_configure", float64(l.bytes)/float64(max(l.starts, 1)), "B")
	put("checkpoint.handoff_us", p50(total["checkpoint.handoff"]), "us")
	put("repository.ensure_us", sum(l.ensures)/float64(max(l.shadowed, 1)), "us")
	put("repository.downloads", float64(l.downloads), "count")
	put("runtime.deploy_us", p50(total["runtime.deploy"]), "us")
	put("runtime.stop_us", p50(total["runtime.stop"]), "us")
	put("runtime.frames_dropped", p50(l.dropped), "count")
	put("runtime.burst_cpu_ms", p50(l.burstMs), "ms")
	put("runtime.settle_ms", p50(l.settleMs), "ms")
	put("go.gc_per_op", float64(gc1.NumGC-gc0.NumGC)/float64(max(ops, 1)), "count")
	put("go.heap_mb", float64(gc1.HeapInuse)/(1<<20), "MiB")
	// Tracing overhead: the traced replay's Handle(start) against the
	// untraced replay's (whose op time is Handle alone).
	if hb, ht := p50(baseStarts), p50(total["wire.handle.start"]); hb > 0 {
		put("bench.trace_overhead_pct", 100*(ht-hb)/hb, "%")
	}

	if err := probeReads(w, in, p, m); err != nil {
		return nil, err
	}
	if err := sinkMatrix(w, in, m); err != nil {
		return nil, err
	}
	if err := dumpSpans(l.tr, filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", w.name, seed))); err != nil {
		return nil, err
	}
	samples := map[string]int{}
	for name, v := range total {
		samples[name] = len(v)
	}
	return &layerResult{metrics: m, samples: samples}, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func perOp(n, ops int) float64 { return float64(n) / float64(max(ops, 1)) }

// outcomeKey renders the outcome metrics that must repeat exactly.
func outcomeKey(o outcome, degraded float64) string {
	return fmt.Sprintf("ok_ratio=%v cost_mean=%v degraded=%v", o.okRatio(), roundSig(o.costMean(), 9), degraded)
}

// inprocDegraded reads the degraded share from the scorecard view, as
// the TCP run does.
func inprocDegraded(p *inproc) float64 {
	resp := p.srv.Handle(wire.Request{Op: wire.OpScorecard})
	return degradedShare(resp.Scorecards)
}

// probeReads times each operator view and a capacity sampling pass on
// the replayed space, with one session live.
func probeReads(w *workloadSpec, in *inputs, p *inproc, m map[string]metric) error {
	call := handleCaller(p.srv)
	id := "probe"
	if _, err := call(request(Op{Kind: "start", Session: id, Device: w.home}, in.apps)); err != nil {
		return fmt.Errorf("read probe: %w", err)
	}
	views := append([]string{wire.OpSession}, readerOps...)
	var all []float64
	for _, view := range views {
		var xs []float64
		for i := 0; i < readProbes; i++ {
			t0 := time.Now()
			if _, err := call(request(Op{Kind: "read", Session: id, Read: view}, in.apps)); err != nil {
				return fmt.Errorf("read probe %s: %w", view, err)
			}
			xs = append(xs, us(time.Since(t0)))
		}
		m["read."+view+"_us"] = metric{median(xs), "us"}
		all = append(all, xs...)
	}
	m["wire.handle.read_us"] = metric{median(all), "us"}
	// A sampling pass runs at most every half interval; time only the
	// calls that ran one (the headroom ring grew), for up to 1.2 s.
	var xs []float64
	ring := func() int { return len(p.dom.Capacity.Series(metrics.SpaceHeadroom, 0)) }
	for deadline := time.Now().Add(1200 * time.Millisecond); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		n0 := ring()
		t0 := time.Now()
		p.dom.SampleCapacityNow()
		took := time.Since(t0)
		if ring() > n0 {
			xs = append(xs, us(took))
		}
	}
	if len(xs) == 0 {
		return fmt.Errorf("read probe: no capacity sampling pass ran in 1.2 s")
	}
	m["capacity.sample_us"] = metric{median(xs), "us"}
	_, err := call(wire.Request{Op: wire.OpStop, SessionID: id})
	return err
}

func dumpSpans(t *tracer, file string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		return err
	}
	return os.WriteFile(file, b, 0o644)
}
