package simnet

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"

	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// LinkConfig describes one directed link's delivery behaviour.
type LinkConfig struct {
	// LatencyBase is the minimum delivery delay in cycles.
	LatencyBase uint64
	// LatencyJitter adds a data-dependent delay in [0, LatencyJitter),
	// drawn from the link's latency input stream.
	LatencyJitter uint64
	// DropPercent is the probability (0-100) that a message is dropped,
	// decided by the link's drop input stream. Dropped messages vanish;
	// the protocols above are expected to tolerate or detect this.
	DropPercent int64
}

// Options configures a Network.
type Options struct {
	// DefaultLink applies to links without an explicit configuration.
	DefaultLink LinkConfig
	// InboxCapacity is each node's inbox channel capacity (default 64).
	InboxCapacity int
}

// Node is one network endpoint.
type Node struct {
	Name  string
	Inbox trace.ObjID // channel carrying encoded messages
}

// linkKey names the directed link from → to.
type linkKey struct{ from, to string }

type link struct {
	from, to string
	cfg      LinkConfig
	ch       trace.ObjID // staging channel feeding the pump
	latIn    trace.ObjID // input stream for jitter
	dropIn   trace.ObjID // input stream for drop decisions
}

// Network is a virtual network bound to one machine. Build the topology
// before Run; call Start from the program's main thread to launch the pump
// daemons.
type Network struct {
	m     *vm.Machine
	opts  Options
	nodes map[string]*Node
	links map[linkKey]*link

	sPumpRecv trace.SiteID
	sPumpSend trace.SiteID
	sPumpLat  trace.SiteID
	sPumpDrop trace.SiteID
	sSend     trace.SiteID

	delivered uint64
	dropped   uint64
}

// New creates a network on the machine.
func New(m *vm.Machine, opts Options) *Network {
	if opts.InboxCapacity == 0 {
		opts.InboxCapacity = 64
	}
	return &Network{
		m:         m,
		opts:      opts,
		nodes:     make(map[string]*Node),
		links:     make(map[linkKey]*link),
		sPumpRecv: m.Site("simnet.pump.recv"),
		sPumpSend: m.Site("simnet.pump.deliver"),
		sPumpLat:  m.Site("simnet.pump.latency"),
		sPumpDrop: m.Site("simnet.pump.drop"),
		sSend:     m.Site("simnet.send"),
	}
}

// AddNode registers a node and returns it. Node registration order must be
// deterministic (it allocates VM objects).
func (n *Network) AddNode(name string) *Node {
	if _, ok := n.nodes[name]; ok {
		panic("simnet: duplicate node " + name)
	}
	node := &Node{
		Name:  name,
		Inbox: n.m.NewChan("inbox:"+name, n.opts.InboxCapacity),
	}
	n.nodes[name] = node
	return node
}

// MustNode returns a registered node.
func (n *Network) MustNode(name string) *Node {
	node, ok := n.nodes[name]
	if !ok {
		panic("simnet: unknown node " + name)
	}
	return node
}

// SetLink overrides the configuration of the directed link from → to.
// Links are created lazily on first configuration or first send.
func (n *Network) SetLink(from, to string, cfg LinkConfig) {
	l := n.getLink(from, to)
	l.cfg = cfg
}

func (n *Network) getLink(from, to string) *link {
	key := linkKey{from, to}
	if l, ok := n.links[key]; ok {
		return l
	}
	name := fmt.Sprintf("link:%s->%s", from, to)
	l := &link{
		from:   from,
		to:     to,
		cfg:    n.opts.DefaultLink,
		ch:     n.m.NewChan(name, n.opts.InboxCapacity),
		latIn:  n.m.DeclareStream("net.lat:"+from+"->"+to, trace.TaintEnv),
		dropIn: n.m.DeclareStream("net.drop:"+from+"->"+to, trace.TaintEnv),
	}
	n.links[key] = l
	return l
}

// Build pre-creates all point-to-point links between registered nodes.
// Call it after AddNode calls and before Run, so that VM object allocation
// does not depend on message order.
func (n *Network) Build() {
	names := make([]string, 0, len(n.nodes))
	for name := range n.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	if want := len(names) * (len(names) - 1); len(n.links) < want {
		links := make(map[linkKey]*link, want)
		maps.Copy(links, n.links)
		n.links = links
	}
	for _, from := range names {
		for _, to := range names {
			if from != to {
				n.getLink(from, to)
			}
		}
	}
}

// Start launches one pump daemon per link, in (from, to) order, which fixes
// the pumps' thread IDs. Call from the main thread after Build. Pumps are
// daemons: they do not keep the machine alive.
func (n *Network) Start(t *vm.Thread) {
	links := make([]*link, 0, len(n.links))
	for _, l := range n.links {
		links = append(links, l)
	}
	slices.SortFunc(links, func(a, b *link) int {
		return cmp.Or(cmp.Compare(a.from, b.from), cmp.Compare(a.to, b.to))
	})
	for _, l := range links {
		t.SpawnDaemon(n.sPumpSend, "pump:"+l.from+">"+l.to, func(t *vm.Thread) {
			n.pump(t, l)
		})
	}
}

// pump moves messages across one link, applying drop and latency drawn
// from the link's environment streams.
func (n *Network) pump(t *vm.Thread, l *link) {
	dst := n.MustNode(l.to).Inbox
	for {
		v := t.Recv(n.sPumpRecv, l.ch)
		if l.cfg.DropPercent > 0 {
			roll := t.Input(n.sPumpDrop, l.dropIn).AsInt() % 100
			if roll < l.cfg.DropPercent {
				n.dropped++
				continue
			}
		}
		delay := l.cfg.LatencyBase
		if l.cfg.LatencyJitter > 0 {
			j := t.Input(n.sPumpLat, l.latIn).AsInt()
			if j < 0 {
				j = -j
			}
			delay += uint64(j) % l.cfg.LatencyJitter
		}
		if delay > 0 {
			t.Sleep(n.sPumpLat, delay)
		}
		t.Send(n.sPumpSend, dst, v)
		n.delivered++
	}
}

// Send transmits a message from the calling thread's node to another node.
// The send is asynchronous: it stages the message on the link and returns
// once the link accepts it.
func (n *Network) Send(t *vm.Thread, site trace.SiteID, from, to string, msg Message) {
	if site == trace.NoSite {
		site = n.sSend
	}
	l := n.getLink(from, to)
	t.Send(site, l.ch, msg.Encode())
}

// Recv blocks on the node's inbox and decodes the next message.
func (n *Network) Recv(t *vm.Thread, site trace.SiteID, node string) Message {
	v := t.Recv(site, n.MustNode(node).Inbox)
	return MustDecode(v)
}

// RecvTimeout is Recv with a deadline; ok is false on timeout.
func (n *Network) RecvTimeout(t *vm.Thread, site trace.SiteID, node string, d uint64) (Message, bool) {
	v, ok := t.RecvTimeout(site, n.MustNode(node).Inbox, d)
	if !ok {
		return Message{}, false
	}
	return MustDecode(v), true
}

// Delivered returns how many messages completed delivery.
func (n *Network) Delivered() uint64 { return n.delivered }

// Dropped returns how many messages the network dropped.
func (n *Network) Dropped() uint64 { return n.dropped }
