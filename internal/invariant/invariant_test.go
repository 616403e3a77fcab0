package invariant

import (
	"math/rand"
	"testing"
	"testing/quick"

	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

func key(site, probe int) Key {
	return Key{Site: trace.SiteID(site), Probe: trace.ObjID(probe)}
}

func TestConstInvariant(t *testing.T) {
	inf := NewInferencer()
	for i := 0; i < 10; i++ {
		inf.Observe(key(1, 0), trace.Int(7))
	}
	set := inf.Infer()
	if set.Len() != 1 {
		t.Fatalf("Len = %d, want 1", set.Len())
	}
	if bad := set.Check(key(1, 0), trace.Int(7)); len(bad) != 0 {
		t.Fatalf("training value violates: %v", bad)
	}
	if bad := set.Check(key(1, 0), trace.Int(8)); len(bad) == 0 {
		t.Fatal("novel value did not violate constancy")
	}
}

func TestOneOfInvariant(t *testing.T) {
	inf := NewInferencer()
	for i := 0; i < 20; i++ {
		inf.Observe(key(2, 0), trace.Str([]string{"idle", "busy", "done"}[i%3]))
	}
	set := inf.Infer()
	if bad := set.Check(key(2, 0), trace.Str("busy")); len(bad) != 0 {
		t.Fatalf("member value violates: %v", bad)
	}
	if bad := set.Check(key(2, 0), trace.Str("exploded")); len(bad) == 0 {
		t.Fatal("non-member did not violate set membership")
	}
}

func TestRangeInvariant(t *testing.T) {
	inf := NewInferencer()
	for i := 0; i < 100; i++ {
		inf.Observe(key(3, 1), trace.Int(int64(10+i%50)))
	}
	set := inf.Infer()
	if bad := set.Check(key(3, 1), trace.Int(35)); len(bad) != 0 {
		t.Fatalf("in-range value violates: %v", bad)
	}
	if bad := set.Check(key(3, 1), trace.Int(500)); len(bad) == 0 {
		t.Fatal("out-of-range value did not violate")
	}
	if bad := set.Check(key(3, 1), trace.Int(5)); len(bad) == 0 {
		t.Fatal("below-range value did not violate")
	}
}

func TestKindInvariant(t *testing.T) {
	inf := NewInferencer()
	for i := 0; i < 50; i++ {
		inf.Observe(key(4, 0), trace.Int(int64(i)))
	}
	set := inf.Infer()
	if bad := set.Check(key(4, 0), trace.Str("oops")); len(bad) == 0 {
		t.Fatal("kind change did not violate")
	}
}

func TestTooFewSamplesInferNothing(t *testing.T) {
	inf := NewInferencer()
	inf.Observe(key(5, 0), trace.Int(1))
	set := inf.Infer()
	if set.Len() != 0 {
		t.Fatalf("single sample produced invariants: %d", set.Len())
	}
	if bad := set.Check(key(5, 0), trace.Int(999)); len(bad) != 0 {
		t.Fatal("unknown probe must not violate")
	}
}

// TestQuickTrainingSamplesNeverViolate is the soundness property: values
// seen during training can never be flagged in production.
func TestQuickTrainingSamplesNeverViolate(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inf := NewInferencer()
		var samples []trace.Value
		n := 2 + r.Intn(60)
		for i := 0; i < n; i++ {
			var v trace.Value
			switch r.Intn(3) {
			case 0:
				v = trace.Int(int64(r.Intn(40) - 20))
			case 1:
				v = trace.Str([]string{"a", "b", "c", "d"}[r.Intn(4)])
			default:
				v = trace.Bool(r.Intn(2) == 0)
			}
			samples = append(samples, v)
			inf.Observe(key(1, 0), v)
		}
		set := inf.Infer()
		for _, v := range samples {
			if len(set.Check(key(1, 0), v)) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTrainingFromTraces(t *testing.T) {
	// Train on two healthy runs, then check a probe value inside and one
	// outside the trained range.
	var k Key
	train := func(seed int64) *trace.Log {
		m := vm.New(vm.Config{Seed: seed, CollectTrace: true})
		s := m.Site("srv.reqsize")
		k = Key{Site: s}
		res := m.Run(func(t *vm.Thread) {
			for i := 0; i < 30; i++ {
				t.Observe(s, 0, trace.Int(int64(10+i%20)))
			}
		})
		return res.Trace
	}
	inf := NewInferencer()
	inf.AddTrace(train(1))
	inf.AddTrace(train(2))
	set := inf.Infer()
	if set.Len() == 0 {
		t.Fatal("no invariants inferred from traces")
	}
	if bad := set.Check(k, trace.Int(15)); len(bad) != 0 {
		t.Fatalf("a trained value violates %v", bad)
	}
	if bad := set.Check(k, trace.Int(9999)); len(bad) == 0 {
		t.Fatal("a value outside the trained range violates nothing")
	}
}

func TestDescribeListsInvariants(t *testing.T) {
	inf := NewInferencer()
	inf.Observe(key(1, 0), trace.Int(5))
	inf.Observe(key(1, 0), trace.Int(5))
	set := inf.Infer()
	sites := trace.NewSiteTable()
	sites.Register("srv.check")
	out := set.Describe(sites)
	if out == "" {
		t.Fatal("Describe produced nothing")
	}
}
