package workload

import (
	"fmt"

	"debugdet/internal/plane"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// Bank is an atomicity-violation scenario for corpus breadth: transfer
// threads move money between accounts with a read-compute-write sequence
// that is not atomic, so concurrent transfers lose updates and the bank's
// total drifts. The total is probed after every transfer, so invariant
// training on healthy runs learns "total == initial".
func Bank() *scenario.Scenario {
	return &scenario.Scenario{
		Name: "bank",
		Description: "non-atomic transfers between accounts lose updates and " +
			"violate the conservation-of-money invariant",
		DefaultParams: scenario.Params{
			"accounts": 4, "threads": 3, "transfers": 12, "fixed": 0,
		},
		DefaultSeed: 0, // verified by TestBankDefaultSeed
		Build:       buildBank,
		Inputs: func(seed int64, p scenario.Params) vm.InputSource {
			return vm.InputSourceFunc(func(stream string, index int) trace.Value {
				return trace.Int(vm.HashValue(seed, stream, index))
			})
		},
		InputDomains: []scenario.InputDomain{
			{Stream: "xfer.pick", Min: 0, Max: 1 << 30},
		},
		Failure: scenario.FailureSpec{
			Name: "imbalance",
			Check: func(v *scenario.RunView) (bool, string) {
				total, ok := v.LastOutput("bank.total")
				initial, ok2 := v.LastOutput("bank.initial")
				if !ok || !ok2 {
					return false, ""
				}
				if total != initial {
					return true, "bank:imbalance"
				}
				return false, ""
			},
		},
		RootCauses: []scenario.RootCause{{
			ID:          "non-atomic-transfer",
			Description: "the debit/credit pair runs unlocked; interleaved transfers overwrite each other's balances",
			Present: func(v *scenario.RunView) bool {
				// Lost updates are visible as a drift between the sum of
				// applied deltas (zero by construction) and the final
				// total.
				total, _ := v.LastOutput("bank.total")
				initial, _ := v.LastOutput("bank.initial")
				return total != initial
			},
		}},
		// The bank moves no bulk data: every site is metadata-driven and
		// low-rate, so the whole application is control plane.
		PlaneTruth: map[string]plane.Plane{
			"xfer.read":  plane.Control,
			"xfer.write": plane.Control,
			"bank.audit": plane.Control,
		},
		ControlStreams: []string{"xfer.pick"},
	}
}

const bankInitialBalance = 1000

func buildBank(m *vm.Machine, p scenario.Params) func(*vm.Thread) {
	nAcc := int(p.Get("accounts", 4))
	nThreads := int(p.Get("threads", 3))
	nTransfers := int(p.Get("transfers", 12))
	fixed := p.Get("fixed", 0) != 0

	accounts := m.NewCells("bank.acct", nAcc, trace.Int(bankInitialBalance))
	mu := m.NewMutex("bank.mu")
	doneCh := m.NewChan("bank.done", nThreads)
	pickIn := m.DeclareStream("xfer.pick", trace.TaintControl)

	totalOut := m.Stream("bank.total")
	initialOut := m.Stream("bank.initial")

	sPick := m.Site("xfer.pickin")
	sRead := m.Site("xfer.read")
	sWindow := m.Site("xfer.window")
	sWrite := m.Site("xfer.write")
	sLock := m.Site("xfer.lock")
	sAudit := m.Site("bank.audit")
	sSpawn := m.Site("main.spawn")
	sDone := m.Site("main.done")

	xfer := func(id int) func(*vm.Thread) {
		return func(t *vm.Thread) {
			for i := 0; i < nTransfers; i++ {
				pick := t.Input(sPick, pickIn).AsInt()
				from := int(pick) % nAcc
				to := int(pick>>8) % nAcc
				if to == from {
					to = (to + 1) % nAcc
				}
				amount := 1 + pick>>16%50
				if fixed {
					t.Lock(sLock, mu)
				}
				a := t.Load(sRead, accounts[from]).AsInt()
				b := t.Load(sRead, accounts[to]).AsInt()
				if !fixed {
					t.Yield(sWindow)
				}
				t.Store(sWrite, accounts[from], trace.Int(a-amount))
				t.Store(sWrite, accounts[to], trace.Int(b+amount))
				// Invariant probe: conservation of money. Healthy (fixed)
				// training runs audit inside the critical section and
				// always see the pristine total; the racy build audits
				// whatever state the interleaving left behind, and the
				// drift violates the trained invariant.
				var total int64
				for _, acc := range accounts {
					total += t.Load(sAudit, acc).AsInt()
				}
				t.Observe(sAudit, 0, trace.Int(total))
				if fixed {
					t.Unlock(sLock, mu)
				}
			}
			t.Send(sDone, doneCh, trace.Int(int64(id)))
		}
	}

	return func(t *vm.Thread) {
		for w := 0; w < nThreads; w++ {
			t.Spawn(sSpawn, fmt.Sprintf("xfer%d", w), xfer(w))
		}
		for w := 0; w < nThreads; w++ {
			t.Recv(sDone, doneCh)
		}
		var total int64
		for _, acc := range accounts {
			total += t.Load(sAudit, acc).AsInt()
		}
		t.Output(sAudit, initialOut, trace.Int(int64(nAcc)*bankInitialBalance))
		t.Output(sAudit, totalOut, trace.Int(total))
	}
}
