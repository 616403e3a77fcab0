package plane

import (
	"strings"
	"testing"

	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// buildMixedWorkload runs a program with a chatty data path (large tainted
// payloads through one site) and a quiet control path (small metadata
// through another).
func buildMixedWorkload(t *testing.T) (*vm.Result, *vm.Machine) {
	t.Helper()
	m := vm.New(vm.Config{Seed: 11, CollectTrace: true})
	dataIn := m.DeclareStream("payload", trace.TaintData)
	ctrlIn := m.DeclareStream("config", trace.TaintControl)
	dataCh := m.NewChan("datach", 8)
	ctrlCh := m.NewChan("ctrlch", 8)
	sink := m.NewCell("sink", trace.Nil)
	meta := m.NewCell("meta", trace.Nil)

	sDataIn := m.Site("reader.data_in")
	sDataSend := m.Site("reader.data_send")
	sDataRecv := m.Site("worker.data_recv")
	sDataStore := m.Site("worker.data_store")
	sCtrlIn := m.Site("admin.ctrl_in")
	sCtrlSend := m.Site("admin.ctrl_send")
	sCtrlRecv := m.Site("mgr.ctrl_recv")
	sCtrlStore := m.Site("mgr.ctrl_store")
	sp := m.Site("main.spawn")

	res := m.Run(func(t *vm.Thread) {
		t.Spawn(sp, "reader", func(t *vm.Thread) {
			for i := 0; i < 200; i++ {
				t.ClearTaint()
				t.Input(sDataIn, dataIn)
				t.Send(sDataSend, dataCh, trace.Blob(strings.Repeat("\x00", 256)))
			}
			t.Send(sDataSend, dataCh, trace.Str("eof"))
		})
		t.Spawn(sp, "worker", func(t *vm.Thread) {
			for {
				t.ClearTaint()
				v := t.Recv(sDataRecv, dataCh)
				if v.Kind == trace.VString && v.AsString() == "eof" {
					return
				}
				t.Store(sDataStore, sink, v)
			}
		})
		t.Spawn(sp, "admin", func(t *vm.Thread) {
			for i := 0; i < 3; i++ {
				t.ClearTaint()
				t.Input(sCtrlIn, ctrlIn)
				t.Send(sCtrlSend, ctrlCh, trace.Str("rebalance"))
			}
			t.Send(sCtrlSend, ctrlCh, trace.Str("eof"))
		})
		t.Spawn(sp, "mgr", func(t *vm.Thread) {
			for {
				t.ClearTaint()
				v := t.Recv(sCtrlRecv, ctrlCh)
				if v.AsString() == "eof" {
					return
				}
				t.Store(sCtrlStore, meta, v)
			}
		})
	})
	if res.Outcome != vm.OutcomeOK {
		t.Fatalf("workload outcome = %v (%v)", res.Outcome, res.Terminal)
	}
	return res, m
}

func TestClassifierSeparatesPlanes(t *testing.T) {
	res, m := buildMixedWorkload(t)
	c := ClassifyTrace(res.Trace, Options{})

	for name, want := range map[string]Plane{
		"reader.data_send":  Data,
		"worker.data_recv":  Data,
		"worker.data_store": Data,
		"admin.ctrl_send":   Control,
		"mgr.ctrl_recv":     Control,
		"mgr.ctrl_store":    Control,
	} {
		id, ok := m.Sites().Lookup(name)
		if !ok {
			t.Fatalf("site %s not registered", name)
		}
		if got := c.Planes[id]; got != want {
			t.Errorf("%s classified %v, want %v", name, got, want)
		}
	}
	if t.Failed() {
		for _, p := range c.Profiles {
			t.Logf("profile: %s", p)
		}
	}
}

func TestProfileRatesAndTaint(t *testing.T) {
	res, _ := buildMixedWorkload(t)
	profiles := Profile(res.Trace)
	byName := make(map[string]SiteProfile)
	for _, p := range profiles {
		byName[p.Name] = p
	}
	d, ok := byName["reader.data_send"]
	if !ok {
		t.Fatal("data site not profiled")
	}
	cp, ok := byName["admin.ctrl_send"]
	if !ok {
		t.Fatal("control site not profiled")
	}
	if d.Rate <= cp.Rate {
		t.Fatalf("data rate (%.3f) not above control rate (%.3f)", d.Rate, cp.Rate)
	}
	if d.DataTainted == 0 {
		t.Fatal("data site shows no data taint")
	}
	if cp.CtrlTainted == 0 {
		t.Fatal("control site shows no control taint")
	}
}

func TestTaintOverridesBurstyControlTraffic(t *testing.T) {
	// A site with high rate but overwhelmingly control-tainted values must
	// remain control plane (e.g. bulk metadata transfer during migration).
	p := SiteProfile{Site: 5, Name: "migrate.bulk", Events: 100,
		PayloadByte: 100000, DataTainted: 2, CtrlTainted: 95, Rate: 50}
	c := Classify([]SiteProfile{p}, Options{})
	if c.Planes[5] != Control {
		t.Fatalf("bursty control-tainted site classified %v, want control", c.Planes[5])
	}
}

func TestLowEventSitesClassifiedByTaintOnly(t *testing.T) {
	pd := SiteProfile{Site: 1, Name: "rare.data", Events: 2,
		PayloadByte: 10000, DataTainted: 2, Rate: 1000}
	c := Classify([]SiteProfile{pd}, Options{})
	// Rate signal suppressed below MinEvents, but taint majority applies.
	if c.Planes[1] != Data {
		t.Fatalf("rare data-tainted site classified %v, want data", c.Planes[1])
	}
}
