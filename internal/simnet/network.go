package simnet

import (
	"maps"
	"slices"

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
	index int         // position in name order, set by Build
}

// link is one directed link's configuration and objects.
type link struct {
	cfg    LinkConfig
	ch     trace.ObjID // staging channel feeding the pump
	dst    trace.ObjID // the receiving node's inbox
	latIn  trace.ObjID // input stream for jitter
	dropIn trace.ObjID // input stream for drop decisions
}

// Network is a virtual network bound to one machine. Add the nodes, then
// Build the links before Run; call Start from the program's main thread
// to launch the pump daemons.
type Network struct {
	m     *vm.Machine
	opts  Options
	nodes map[string]*Node
	built bool
	// names lists the nodes in name order and links holds the link from
	// names[i] to names[j] at i*len(names)+j (the diagonal is unused); Build
	// sets both.
	names []string
	links []link

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
		sPumpRecv: m.Site("simnet.pump.recv"),
		sPumpSend: m.Site("simnet.pump.deliver"),
		sPumpLat:  m.Site("simnet.pump.latency"),
		sPumpDrop: m.Site("simnet.pump.drop"),
		sSend:     m.Site("simnet.send"),
	}
}

// AddNode registers a node and returns it. Node registration order must be
// deterministic (it allocates VM objects), and every node is added before
// Build.
func (n *Network) AddNode(name string) *Node {
	if n.built {
		panic("simnet: AddNode(" + name + ") after Build")
	}
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
// Call it after Build.
func (n *Network) SetLink(from, to string, cfg LinkConfig) {
	n.link("SetLink", from, to).cfg = cfg
}

// link returns the directed link from → to, which op uses.
func (n *Network) link(op, from, to string) *link {
	if !n.built {
		panic("simnet: " + op + "(" + from + ", " + to + ") before Build")
	}
	i, j := n.MustNode(from).index, n.MustNode(to).index
	if i == j {
		panic("simnet: " + op + "(" + from + ", " + to + "): no link from a node to itself")
	}
	return &n.links[i*len(n.names)+j]
}

// Build creates the links between every ordered pair of registered nodes,
// in (from, to) name order, which fixes their object IDs. Call it after
// the AddNode calls and before Run; a second call does nothing.
func (n *Network) Build() {
	if n.built {
		return
	}
	n.built = true
	n.names = slices.Sorted(maps.Keys(n.nodes))
	k := len(n.names)
	for i, name := range n.names {
		n.nodes[name].index = i
	}
	n.links = make([]link, k*k)
	for i, from := range n.names {
		for j, to := range n.names {
			if i == j {
				continue
			}
			n.links[i*k+j] = link{
				cfg:    n.opts.DefaultLink,
				ch:     n.m.NewChan("link:"+from+"->"+to, n.opts.InboxCapacity),
				dst:    n.nodes[to].Inbox,
				latIn:  n.m.DeclareStream("net.lat:"+from+"->"+to, trace.TaintEnv),
				dropIn: n.m.DeclareStream("net.drop:"+from+"->"+to, trace.TaintEnv),
			}
		}
	}
}

// Start launches one pump daemon per link, in (from, to) order, which fixes
// the pumps' thread IDs. Call from the main thread after Build. Pumps are
// daemons: they do not keep the machine alive.
func (n *Network) Start(t *vm.Thread) {
	k := len(n.names)
	for i, from := range n.names {
		for j, to := range n.names {
			if i == j {
				continue
			}
			l := &n.links[i*k+j]
			t.SpawnDaemon(n.sPumpSend, "pump:"+from+">"+to, func(t *vm.Thread) {
				n.pump(t, l)
			})
		}
	}
}

// pump moves messages across one link, applying drop and latency drawn
// from the link's environment streams.
func (n *Network) pump(t *vm.Thread, l *link) {
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
		t.Send(n.sPumpSend, l.dst, v)
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
	t.Send(site, n.link("Send", from, to).ch, msg.Encode())
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
