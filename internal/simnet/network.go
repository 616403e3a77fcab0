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

// link is one directed link's configuration and objects, their names and
// its pump. The names and run are laid out once per link array; Build
// rewrites the rest for the network that holds the array (net).
type link struct {
	cfg    LinkConfig
	ch     trace.ObjID // staging channel feeding the pump
	dst    trace.ObjID // the receiving node's inbox
	latIn  trace.ObjID // input stream for jitter
	dropIn trace.ObjID // input stream for drop decisions
	net    *Network

	// chName, latName, dropName and pumpName name the channel, the two
	// streams and the pump thread; node i's unused diagonal entry holds
	// its inbox name in chName. run is the pump's body (nil on the
	// diagonal).
	chName, latName, dropName, pumpName string
	run                                 func(*vm.Thread)
}

// Network is a virtual network bound to one machine. Add the nodes, then
// Build the links before Run; call Start from the program's main thread
// to launch the pump daemons.
//
// Build keeps the network on its machine (vm.Keep). The first network
// made on the machine recycled from that run adopts its nodes and, when the
// two have the same nodes, its link array and object names, so a search's
// candidates lay their mesh out once per machine.
type Network struct {
	m     *vm.Machine
	opts  Options
	nodes map[string]*Node
	// names lists the nodes in name order and links holds the link from
	// names[i] to names[j] at i*len(names)+j; Build sets both.
	names []string
	links []link
	// prev is the network the machine's previous run built, until Build.
	prev *Network

	sPumpRecv trace.SiteID
	sPumpSend trace.SiteID
	sPumpLat  trace.SiteID
	sPumpDrop trace.SiteID
	sSend     trace.SiteID
	built     bool

	delivered uint64
	dropped   uint64
}

// New creates a network on the machine.
func New(m *vm.Machine, opts Options) *Network {
	if opts.InboxCapacity == 0 {
		opts.InboxCapacity = 64
	}
	n := &Network{
		m:         m,
		opts:      opts,
		nodes:     make(map[string]*Node),
		sPumpRecv: m.Site("simnet.pump.recv"),
		sPumpSend: m.Site("simnet.pump.deliver"),
		sPumpLat:  m.Site("simnet.pump.latency"),
		sPumpDrop: m.Site("simnet.pump.drop"),
		sSend:     m.Site("simnet.send"),
	}
	n.prev, _ = vm.TakeKept(m).(*Network)
	return n
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
	// The previous run's node of that name is dead: rewrite it, under the
	// inbox name its links' diagonal holds.
	var node *Node
	var inbox string
	if p := n.prev; p != nil && p.nodes[name] != nil {
		node = p.nodes[name]
		inbox = p.links[node.index*(len(p.names)+1)].chName
	} else {
		node, inbox = new(Node), "inbox:"+name
	}
	*node = Node{Name: name, Inbox: n.m.NewChan(inbox, n.opts.InboxCapacity)}
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
// the AddNode calls and before Run; a second call does nothing. On a
// recycled machine whose previous network had the same nodes it rewrites
// that network's links in place, every one back to the default
// configuration.
func (n *Network) Build() {
	if n.built {
		return
	}
	n.built = true
	vm.Keep(n.m, n)
	if p := n.prev; p != nil && p.hasNodes(n.nodes) {
		n.names, n.links = p.names, p.links
	} else {
		n.names = slices.Sorted(maps.Keys(n.nodes))
		n.links = n.layout()
	}
	n.prev = nil
	k := len(n.names)
	for i, name := range n.names {
		n.nodes[name].index = i
	}
	vm.Reserve(n.m, k*(k-1), 2*k*(k-1))
	for i := range n.names {
		for j, to := range n.names {
			if i == j {
				continue
			}
			l := &n.links[i*k+j]
			l.cfg, l.dst, l.net = n.opts.DefaultLink, n.nodes[to].Inbox, n
			l.ch = n.m.NewChan(l.chName, n.opts.InboxCapacity)
			l.latIn = n.m.DeclareStream(l.latName, trace.TaintEnv)
			l.dropIn = n.m.DeclareStream(l.dropName, trace.TaintEnv)
		}
	}
}

// layout returns a link array for the nodes n.names, with every link's
// names and pump body.
func (n *Network) layout() []link {
	k := len(n.names)
	links := make([]link, k*k)
	for i, from := range n.names {
		for j, to := range n.names {
			l := &links[i*k+j]
			if i == j {
				l.chName = n.m.ChanName(n.nodes[from].Inbox)
				continue
			}
			l.chName, l.latName = "link:"+from+"->"+to, "net.lat:"+from+"->"+to
			l.dropName, l.pumpName = "net.drop:"+from+"->"+to, "pump:"+from+">"+to
			l.run = func(t *vm.Thread) { l.net.pump(t, l) }
		}
	}
	return links
}

// hasNodes reports whether the network's nodes are exactly those of nodes.
func (n *Network) hasNodes(nodes map[string]*Node) bool {
	if len(n.names) != len(nodes) {
		return false
	}
	for _, name := range n.names {
		if _, ok := nodes[name]; !ok {
			return false
		}
	}
	return true
}

// Start launches one pump daemon per link, in (from, to) order, which fixes
// the pumps' thread IDs. Call from the main thread after Build. Pumps are
// daemons: they do not keep the machine alive.
func (n *Network) Start(t *vm.Thread) {
	for i := range n.links {
		if l := &n.links[i]; l.run != nil {
			t.SpawnDaemon(n.sPumpSend, l.pumpName, l.run)
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
