package sim

import (
	"debugdet/internal/simnet"
	"debugdet/trace"
)

// Network is the simulated message network for distributed scenarios: a
// set of named nodes connected by directed links with deterministic,
// input-stream-driven latency and drop behaviour. It runs entirely on the
// machine's threads and channels, so network non-determinism is ordinary
// VM non-determinism — recordable and replayable like everything else.
type Network = simnet.Network

// NetworkOptions configures a Network.
type NetworkOptions = simnet.Options

// LinkConfig describes one directed link's delivery behaviour.
type LinkConfig = simnet.LinkConfig

// Node is one network endpoint.
type Node = simnet.Node

// Message is the wire format of the simulated network.
type Message = simnet.Message

// NewNetwork builds a network on the machine. Add the nodes, Build the
// links between them and configure any with SetLink, all before the
// machine runs; then Start from the main thread.
func NewNetwork(m *Machine, opts NetworkOptions) *Network { return simnet.New(m, opts) }

// DecodeMessage decodes a message from its encoded Value form.
func DecodeMessage(v trace.Value) (Message, error) { return simnet.DecodeMessage(v) }

// MustDecodeMessage decodes a message, panicking on malformed input (for
// workload code whose messages are machine-generated).
func MustDecodeMessage(v trace.Value) Message { return simnet.MustDecode(v) }
