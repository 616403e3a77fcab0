package simnet

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

func TestMessageRoundTrip(t *testing.T) {
	msg := Message{
		Kind: "commit",
		From: "client-1",
		Args: []string{"users", "row-42"},
		Nums: []int64{7, -3, 0},
		Blob: "payload bytes",
	}
	got, err := DecodeMessage(msg.Encode())
	if err != nil {
		t.Fatalf("DecodeMessage: %v", err)
	}
	if got.Kind != msg.Kind || got.From != msg.From {
		t.Fatalf("header mismatch: %v", got)
	}
	if len(got.Args) != 2 || got.Arg(0) != "users" || got.Arg(1) != "row-42" {
		t.Fatalf("args mismatch: %v", got.Args)
	}
	if len(got.Nums) != 3 || got.Num(1) != -3 {
		t.Fatalf("nums mismatch: %v", got.Nums)
	}
	if got.Blob != "payload bytes" {
		t.Fatalf("blob mismatch: %q", got.Blob)
	}
}

// TestDecodeMessageAllocs: decoding takes every string it returns, the
// blob included, from the value's payload and allocates only Args and
// Nums, each once at its final size; a hostile count reserves nothing.
func TestDecodeMessageAllocs(t *testing.T) {
	v := Message{Kind: "put", From: "node-1", Args: []string{"users", "row-42", "v7"}, Nums: []int64{7, -3}}.Encode()
	// Args, Nums.
	if allocs := testing.AllocsPerRun(100, func() { MustDecode(v) }); allocs != 2 {
		t.Fatalf("decoding a 3-arg 2-num message allocated %.0f objects, want 2", allocs)
	}
	commit := Message{Kind: "commit", From: "client-0", Args: []string{"users"}, Nums: []int64{42}, Blob: strings.Repeat("r", 64)}.Encode()
	// Args, Nums; the blob is a substring too.
	if allocs := testing.AllocsPerRun(100, func() { MustDecode(commit) }); allocs != 2 {
		t.Fatalf("decoding a message with a 64-byte blob allocated %.0f objects, want 2", allocs)
	}
	hostile := "\x03put\x06node-1" + string(binary.AppendUvarint(nil, 1<<62))
	if _, err := DecodeMessage(trace.Blob(hostile)); err == nil || err.Error() != "simnet: arg 0: bad uvarint" {
		t.Fatalf("argc 2^62 with no bytes left: err %v", err)
	}
}

func TestMessageAccessorsOutOfRange(t *testing.T) {
	var m Message
	if m.Arg(3) != "" || m.Num(9) != 0 {
		t.Fatal("out-of-range accessors must return zero values")
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	if _, err := DecodeMessage(trace.Int(5)); err == nil {
		t.Fatal("accepted non-bytes value")
	}
	if _, err := DecodeMessage(trace.Blob("\xff")); err == nil {
		t.Fatal("accepted truncated bytes")
	}
	good := Message{Kind: "k", From: "f", Blob: "xyz"}.Encode()
	for cut := 1; cut < len(good.Str); cut++ {
		if _, err := DecodeMessage(trace.Blob(good.Str[:cut])); err == nil {
			t.Fatalf("accepted truncation at %d", cut)
		}
	}
}

// TestTakeUvarintMatchesBinary: the string decoder accepts exactly what
// binary.Uvarint accepts, with the same value and length, at the 64-bit
// edges and on random bytes.
func TestTakeUvarintMatchesBinary(t *testing.T) {
	check := func(b []byte) bool {
		want, n := binary.Uvarint(b)
		got, rest, err := takeUvarint(string(b))
		if n <= 0 {
			return err != nil
		}
		return err == nil && got == want && len(rest) == len(b)-n
	}
	edges := [][]byte{nil, {0x80}, binary.AppendUvarint(nil, 1<<63), binary.AppendUvarint(nil, 1<<64-1),
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, bytes.Repeat([]byte{0xff}, 11)}
	for _, b := range edges {
		if !check(b) {
			t.Fatalf("takeUvarint disagrees with binary.Uvarint on % x", b)
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMessageRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := Message{Kind: randStr(r), From: randStr(r)}
		for i := 0; i < r.Intn(5); i++ {
			m.Args = append(m.Args, randStr(r))
		}
		for i := 0; i < r.Intn(5); i++ {
			m.Nums = append(m.Nums, r.Int63()-r.Int63())
		}
		if r.Intn(2) == 0 {
			b := make([]byte, r.Intn(100))
			r.Read(b)
			m.Blob = string(b)
		}
		got, err := DecodeMessage(m.Encode())
		if err != nil {
			return false
		}
		if got.Kind != m.Kind || got.From != m.From || len(got.Args) != len(m.Args) ||
			len(got.Nums) != len(m.Nums) || got.Blob != m.Blob {
			return false
		}
		for i := range m.Args {
			if got.Args[i] != m.Args[i] {
				return false
			}
		}
		for i := range m.Nums {
			if got.Nums[i] != m.Nums[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func randStr(r *rand.Rand) string {
	b := make([]byte, r.Intn(12))
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

// pingPong builds a two-node network where A sends n pings and B echoes.
func pingPong(seed int64, n int, cfg LinkConfig) (*vm.Result, *Network) {
	m := vm.New(vm.Config{Seed: seed, Inputs: vm.SeededInputs(seed, 1000), CollectTrace: true})
	net := New(m, Options{DefaultLink: cfg})
	net.AddNode("a")
	net.AddNode("b")
	net.Build()
	sA := m.Site("a.loop")
	sB := m.Site("b.loop")
	sp := m.Site("main")
	out := m.Stream("a.got")

	res := m.Run(func(t *vm.Thread) {
		net.Start(t)
		t.SpawnDaemon(sp, "b", func(t *vm.Thread) {
			for {
				msg := net.Recv(t, sB, "b")
				net.Send(t, sB, "b", "a", Message{Kind: "pong", From: "b", Nums: []int64{msg.Num(0)}})
			}
		})
		t.Spawn(sp, "a", func(t *vm.Thread) {
			got := 0
			for i := 0; i < n; i++ {
				net.Send(t, sA, "a", "b", Message{Kind: "ping", From: "a", Nums: []int64{int64(i)}})
			}
			for got < n {
				msg, ok := net.RecvTimeout(t, sA, "a", 200000)
				if !ok {
					break
				}
				_ = msg
				got++
			}
			t.Output(sA, out, trace.Int(int64(got)))
		})
	})
	return res, net
}

func TestPingPongReliableDeliversAll(t *testing.T) {
	res, net := pingPong(3, 20, LinkConfig{LatencyBase: 50})
	if res.Outcome != vm.OutcomeOK {
		t.Fatalf("outcome = %v (%v)", res.Outcome, res.Terminal)
	}
	if got := res.Outputs["a.got"][0].AsInt(); got != 20 {
		t.Fatalf("received %d pongs, want 20", got)
	}
	if net.Dropped() != 0 {
		t.Fatalf("reliable link dropped %d", net.Dropped())
	}
}

func TestLossyLinkDropsSome(t *testing.T) {
	dropped := false
	for seed := int64(0); seed < 5 && !dropped; seed++ {
		_, net := pingPong(seed, 40, LinkConfig{LatencyBase: 10, DropPercent: 30})
		dropped = net.Dropped() > 0
	}
	if !dropped {
		t.Fatal("30% lossy link never dropped across 5 seeds")
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	fast, _ := pingPong(1, 10, LinkConfig{LatencyBase: 1})
	slow, _ := pingPong(1, 10, LinkConfig{LatencyBase: 5000})
	if slow.Cycles <= fast.Cycles {
		t.Fatalf("latency had no effect: fast=%d slow=%d", fast.Cycles, slow.Cycles)
	}
}

func TestNetworkDeterminism(t *testing.T) {
	r1, _ := pingPong(9, 15, LinkConfig{LatencyBase: 20, LatencyJitter: 100, DropPercent: 10})
	r2, _ := pingPong(9, 15, LinkConfig{LatencyBase: 20, LatencyJitter: 100, DropPercent: 10})
	if !trace.EventsEqual(r1.Trace, r2.Trace, false) {
		t.Fatal("identical network runs diverged")
	}
}

func TestPumpsDoNotKeepMachineAlive(t *testing.T) {
	// A network with running pumps must not deadlock the machine once the
	// program threads finish.
	res, _ := pingPong(2, 5, LinkConfig{})
	if res.Outcome != vm.OutcomeOK {
		t.Fatalf("outcome = %v, want ok", res.Outcome)
	}
}
