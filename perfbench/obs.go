package main

import (
	"fmt"
	goruntime "runtime"
	"time"

	"ubiqos/internal/core"
	"ubiqos/internal/device"
	"ubiqos/internal/domain"
	"ubiqos/internal/resource"
	rt "ubiqos/internal/runtime"
)

// sinkNames are the configurator's six observability sinks.
var sinkNames = []string{"metrics", "trace", "log", "flight", "explain", "ledger"}

// Cycles per configurator variant in the sink matrix: a configure and a
// stop each. (A switch would add a state handoff, whose ~1 ms sleep
// jitters more than a sink costs.)
const (
	sinkCycles     = 100
	sinkCyclesFig5 = 12
)

// variant is one configurator built with a subset of the sinks over a
// fresh copy of the workload's space.
type variant struct {
	name string
	dom  *domain.Domain
	cfg  *core.Configurator
	took []float64 // microseconds per cycle
}

// newVariant builds the space again and a configurator over its
// infrastructure with only the named sinks wired ("all" wires six).
func newVariant(w *workloadSpec, in *inputs, name string) (*variant, error) {
	dom, err := in.buildDomain(w)
	if err != nil {
		return nil, err
	}
	eng, err := rt.NewEngine(scale, dom.Net)
	if err != nil {
		dom.Close()
		return nil, err
	}
	weights, err := resource.NewWeights(0.3, 0.3, 0.4) // the domain default
	if err != nil {
		dom.Close()
		return nil, err
	}
	c := core.Config{Composer: dom.Composer, Devices: dom.Devices, Links: dom.Links, Net: dom.Net,
		Repo: dom.Repo, Checkpoints: dom.Checkpoints, Engine: eng, Weights: weights,
		PlanCache: dom.PlanCache, Profiler: dom.Profiler}
	on := func(s string) bool { return name == "all" || name == s }
	if on("metrics") {
		c.Metrics = dom.Metrics
	}
	if on("trace") {
		c.Tracer = dom.Tracer
	}
	if on("log") {
		c.Log = dom.Log
	}
	if on("flight") {
		c.Flight = dom.Flight
	}
	if on("explain") {
		c.Explain = dom.Explain
	}
	if on("ledger") {
		c.Ledger = dom.Ledger
	}
	cfg, err := core.New(c)
	if err != nil {
		dom.Close()
		return nil, err
	}
	return &variant{name: name, dom: dom, cfg: cfg}, nil
}

// cycle configures the workload's first app on its away device (the PDA
// on paper-handoff, so OC inserts the transcoder) and stops it, timing
// the two calls together. A collection runs first, untimed, so no cycle
// pays for another's garbage (a Fig 5 deploy allocates megabytes).
func (v *variant) cycle(w *workloadSpec, in *inputs, id string) error {
	req := core.Request{SessionID: id, App: in.apps.graphs[0], UserQoS: in.apps.qos[0],
		ClientDevice: device.ID(w.away), MaxFrames: maxFrames}
	goruntime.GC()
	t0 := time.Now()
	if _, err := v.cfg.Configure(req); err != nil {
		return fmt.Errorf("sink matrix %s: configure: %w", v.name, err)
	}
	if err := v.cfg.Stop(id); err != nil {
		return fmt.Errorf("sink matrix %s: stop: %w", v.name, err)
	}
	v.took = append(v.took, us(time.Since(t0)))
	return nil
}

// sinkMatrix prices each sink: one configurator with no sinks, one per
// sink, and one with all six run the same cycles round-robin; a sink's
// cost is its variant's median cycle time minus the sinkless one's.
func sinkMatrix(w *workloadSpec, in *inputs, m map[string]metric) error {
	names := append([]string{"none", "all"}, sinkNames...)
	vs := make([]*variant, 0, len(names))
	defer func() {
		for _, v := range vs {
			v.dom.Close()
		}
	}()
	for _, name := range names {
		v, err := newVariant(w, in, name)
		if err != nil {
			return err
		}
		vs = append(vs, v)
	}
	cycles := sinkCycles
	if w.settle {
		cycles = sinkCyclesFig5
	}
	for i := 0; i < cycles; i++ {
		for _, v := range vs {
			if err := v.cycle(w, in, fmt.Sprintf("m%d", i)); err != nil {
				return err
			}
		}
	}
	none := median(vs[0].took)
	m["obs.sinks_us"] = metric{median(vs[1].took) - none, "us"}
	for _, v := range vs[2:] {
		m["obs."+v.name+"_us"] = metric{median(v.took) - none, "us"}
	}
	return nil
}
