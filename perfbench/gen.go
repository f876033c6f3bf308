package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"ubiqos/internal/composer"
	"ubiqos/internal/experiments"
	"ubiqos/internal/graph"
	"ubiqos/internal/qos"
	"ubiqos/internal/registry"
	"ubiqos/internal/workload"
)

// fig5Apps is the number of predefined Fig 5 service graphs.
const fig5Apps = 5

// fig5CatalogSeed generates the Fig 5 space and its five graphs: the
// seed of the repository's Fig 5 experiment. The run seed drives the
// request stream only, so runs on different seeds place the same
// graphs and their figures are comparable.
const fig5CatalogSeed = 2002

// fig5Devices are the Fig 5 devices in declaration order.
var fig5Devices = []string{"desktop", "laptop", "pda"}

// fig5Space generates the Fig 5 smart space for a seed: a desktop, a
// laptop and a PDA whose class-normalized capacities are the paper's
// [256MB, 300%], [128MB, 100%] and [32MB, 50%], 50/5/5 Mbps links, and one
// pre-installed service instance per component of the seed's five
// predefined graphs. It returns the space document and the graphs as
// abstract applications (one discovery lookup per node). The same seed
// yields a byte-identical document.
func fig5Space(seed int64) (string, []*composer.AbstractGraph, error) {
	graphs, err := workload.PredefinedGraphs(seed, fig5Apps, workload.Fig5Params())
	if err != nil {
		return "", nil, err
	}
	num := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "// Fig 5 smart space generated from seed %d.\n", seed)
	b.WriteString("space \"fig5\" {\n")
	// Raw CPU is divided by each class's speed ratio (desktop 5, laptop 1,
	// PDA 0.4) so the normalized capacities equal the paper's.
	b.WriteString("    device desktop { class = \"desktop\" memory = 256 cpu = 60 }\n")
	b.WriteString("    device laptop { class = \"laptop\" memory = 128 cpu = 100 }\n")
	b.WriteString("    device pda { class = \"pda\" memory = 32 cpu = 125 }\n")
	b.WriteString("    link desktop laptop { bandwidth = 50 latency = 0.3 }\n")
	b.WriteString("    link desktop pda { bandwidth = 5 latency = 5 }\n")
	b.WriteString("    link laptop pda { bandwidth = 5 latency = 5 }\n")
	apps := make([]*composer.AbstractGraph, len(graphs))
	for k, g := range graphs {
		app := composer.NewAbstractGraph()
		for _, n := range g.Nodes() {
			typ := fig5Type(k, n.ID)
			fmt.Fprintf(&b, "    instance %q { type = %q resources { memory = %s cpu = %s } installed = [\"*\"] }\n",
				typ, typ, num(n.Resources[0]), num(n.Resources[1]))
			app.MustAddNode(&composer.AbstractNode{ID: n.ID, Spec: registry.Spec{Type: typ}})
		}
		for _, e := range g.Edges() {
			app.MustAddEdge(e.From, e.To, e.ThroughputMbps)
		}
		apps[k] = app
	}
	b.WriteString("}\n")
	return b.String(), apps, nil
}

// fig5Type is the service type of node id of Fig 5 graph k.
func fig5Type(k int, id graph.NodeID) string { return fmt.Sprintf("g%d-%s", k, id) }

// Op is one generated client operation.
type Op struct {
	Kind    string // start, switch, stop or read
	Session string
	App     int    // start: index into the workload's apps
	Device  string // start: client device; switch: target device
	Read    string // read: wire op name
}

// cdQuality is the user QoS of the audio application (Fig 3 event 1).
var cdQuality = qos.V(qos.P(qos.DimFrameRate, qos.Range(38, 44)))

// confQuality is the user QoS of the conferencing application (Fig 3
// event 4).
var confQuality = qos.V(qos.P("video-fps", qos.Range(20, 30)), qos.P("audio-fps", qos.Range(5, 8)))

// appSet is a workload's applications with the user QoS of each.
type appSet struct {
	graphs []*composer.AbstractGraph
	qos    []qos.Vector
}

func audioApps() appSet {
	return appSet{graphs: []*composer.AbstractGraph{experiments.AudioOnDemandApp()}, qos: []qos.Vector{cdQuality}}
}

func confApps() appSet {
	return appSet{graphs: []*composer.AbstractGraph{experiments.VideoConferencingApp()}, qos: []qos.Vector{confQuality}}
}

func fig5AppSet(apps []*composer.AbstractGraph) appSet {
	return appSet{graphs: apps, qos: make([]qos.Vector, len(apps))}
}

// sessionNamer hands out fresh session IDs, so every start is a new
// session in the daemon's bounded stores.
type sessionNamer struct{ n int }

func (s *sessionNamer) next() string {
	s.n++
	return "s" + strconv.Itoa(s.n)
}

// cycle returns the writer's ops for one closed-loop cycle of a workload
// whose cycles each leave the space empty: paper-handoff and the writer
// of operator-mix.
func cycle(workload string, ids *sessionNamer) []Op {
	id := ids.next()
	switch workload {
	case "paper-handoff":
		return []Op{
			{Kind: "start", Session: id, Device: "desktop2"},
			{Kind: "read", Session: id, Read: "session"},
			{Kind: "switch", Session: id, Device: "jornada"},
			{Kind: "switch", Session: id, Device: "desktop2"},
			{Kind: "stop", Session: id},
		}
	default: // operator-mix writer
		return []Op{
			{Kind: "start", Session: id, Device: "ws2"},
			{Kind: "switch", Session: id, Device: "ws3"},
			{Kind: "stop", Session: id},
		}
	}
}

// readerOps is the operator-mix reader's rotation. It lists sessions
// rather than reading one: the writer may have stopped any given session
// by the time the read arrives, and no read may fail.
var readerOps = []string{"sessions", "flight", "explain", "ledger", "scorecard", "saturation", "slo", "metrics", "incidents", "stats", "timeseries"}

// readerCycle draws one pass over the reader's views in a seeded order.
func readerCycle(rng *rand.Rand) []string {
	out := append([]string(nil), readerOps...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// churn generates one fig5-churn episode: churnSteps steps, each an
// arrival (a start of the next app in round-robin order, app 0 first), a
// status read of a random live session, a portal switch of the newest
// live session, and, once churnLive sessions are live, a departure (a
// stop of the oldest). Arrivals come whatever the load, so the space
// runs at capacity and a share of starts and switches fails there. The
// seed picks the portal devices and the sessions read; placement does
// not depend on the portal of these unpinned graphs, so every episode
// and every seed places the same graphs in the same order, and runs on
// different seeds (or with a different number of episodes) measure the
// same mix. Given the seed, the stream depends only on which ops
// succeeded, which a single writer makes deterministic.
type churn struct {
	rng   *rand.Rand
	ids   sessionNamer
	step  int
	queue []Op     // the rest of the current step
	live  []string // live sessions in start order
	dev   map[string]string
}

const (
	churnSteps = 2 * fig5Apps
	churnLive  = 3
)

// newChurn returns episode i of the stream for seed.
func newChurn(seed int64, i int) *churn {
	return &churn{rng: rand.New(rand.NewSource(experiments.SubSeed(seed, i))), dev: map[string]string{}}
}

// next returns the episode's next op, or false when the episode is over.
func (c *churn) next() (Op, bool) {
	for len(c.queue) == 0 {
		if c.step == churnSteps {
			return Op{}, false
		}
		c.queue = []Op{{Kind: "start", App: c.step % fig5Apps}, {Kind: "read"}, {Kind: "switch"}, {Kind: "stop"}}
		c.step++
	}
	op := c.queue[0]
	c.queue = c.queue[1:]
	// Every op draws the same numbers whatever the live set, so the
	// stream stays aligned across runs.
	pick, devIdx := c.rng.Intn(1<<30), c.rng.Intn(len(fig5Devices))
	n := len(c.live)
	switch {
	case op.Kind == "start":
		op.Session, op.Device = c.ids.next(), fig5Devices[devIdx]
		return op, true
	case n == 0, op.Kind == "stop" && n < churnLive:
		return c.next()
	}
	switch op.Kind {
	case "read":
		op.Session, op.Read = c.live[pick%n], "session"
	case "switch":
		op.Session, op.Device = c.live[n-1], fig5Devices[devIdx]
		if op.Device == c.dev[op.Session] {
			op.Device = fig5Devices[(devIdx+1)%len(fig5Devices)]
		}
	case "stop":
		op.Session = c.live[0]
	}
	return op, true
}

// done records an op's outcome so later draws see the live set.
func (c *churn) done(op Op, ok bool) {
	switch op.Kind {
	case "start":
		if ok {
			c.live = append(c.live, op.Session)
			c.dev[op.Session] = op.Device
		}
	case "switch":
		if ok {
			c.dev[op.Session] = op.Device
		} else {
			// A failed switch loses the session (the old graph is torn
			// down before the new one is placed).
			c.drop(op.Session)
		}
	case "stop":
		c.drop(op.Session)
	}
}

func (c *churn) drop(id string) {
	for i, s := range c.live {
		if s == id {
			c.live = append(c.live[:i], c.live[i+1:]...)
			break
		}
	}
	delete(c.dev, id)
}
