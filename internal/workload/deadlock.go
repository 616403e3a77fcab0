package workload

import (
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// Deadlock is a classic ABBA lock-order inversion: two threads acquire the
// same pair of mutexes in opposite orders. Included for corpus breadth —
// it exercises the machine's deadlock detection and shows how determinism
// models differ on synchronization-only failures (value determinism logs
// no values worth replaying here, so it cannot pin the fatal order).
func Deadlock() *scenario.Scenario {
	return &scenario.Scenario{
		Name: "deadlock",
		Description: "two threads lock mutexes A and B in opposite orders; some " +
			"interleavings deadlock",
		DefaultParams: scenario.Params{"iterations": 6},
		DefaultSeed:   1, // verified by TestDeadlockDefaultSeed
		Build:         buildDeadlock,
		Inputs: func(seed int64, p scenario.Params) vm.InputSource {
			return vm.ZeroInputs
		},
		Failure: scenario.FailureSpec{
			Name: "deadlock",
			Check: func(v *scenario.RunView) (bool, string) {
				if v.Result.Outcome != vm.OutcomeDeadlock {
					return false, ""
				}
				return true, "deadlock:abba"
			},
		},
		RootCauses: []scenario.RootCause{{
			ID:          "lock-order-inversion",
			Description: "thread 1 locks A then B while thread 2 locks B then A",
			Present: func(v *scenario.RunView) bool {
				// The inversion is present whenever both threads hold one
				// lock while waiting for the other — which is exactly the
				// machine's deadlock condition for this program.
				return v.Result.Outcome == vm.OutcomeDeadlock
			},
		}},
	}
}

func buildDeadlock(m *vm.Machine, p scenario.Params) func(*vm.Thread) {
	iters := int(p.Get("iterations", 6))
	a := m.NewMutex("A")
	b := m.NewMutex("B")
	work := m.NewCell("shared", trace.Int(0))
	sWork := m.Site("ab.work")
	sLock := m.Site("ab.lock")
	sSpawn := m.Site("main.spawn")

	locker := func(first, second trace.ObjID) func(*vm.Thread) {
		return func(t *vm.Thread) {
			for i := 0; i < iters; i++ {
				t.Lock(sLock, first)
				t.Yield(sWork)
				t.Lock(sLock, second)
				t.Add(sWork, work, 1)
				t.Unlock(sWork, second)
				t.Unlock(sWork, first)
			}
		}
	}

	return func(t *vm.Thread) {
		t.Spawn(sSpawn, "ab", locker(a, b))
		t.Spawn(sSpawn, "ba", locker(b, a))
	}
}
