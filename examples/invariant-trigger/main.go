// Data-based selection (§3.1.2) in action: train likely invariants on the
// healthy build, monitor them in production, and dial recording fidelity
// up the moment one is violated — so the root cause of the impending
// failure is captured at high determinism.
package main

import (
	"context"
	"fmt"
	"log"

	"debugdet"
)

func main() {
	eng := debugdet.New()
	s, err := eng.ByName("bank")
	if err != nil {
		log.Fatal(err)
	}

	// Step 1: train on the healthy (fixed) build — this is what ships
	// through testing. The probe at bank.audit observes the total after
	// every transfer; training learns it is constant.
	set := debugdet.TrainInvariants(s, []int64{100, 101, 102}, nil)
	fmt.Println("invariants learned from the healthy build:")
	fmt.Print(set.Describe(nil))

	// Step 2: production runs the racy build with the monitor attached as
	// an RCSE trigger. Evaluate wires this up via the InvariantTrigger
	// option: the first conservation violation dials fidelity up.
	ev, err := eng.Evaluate(context.Background(), s, debugdet.DebugRCSE, debugdet.Options{
		RCSE: debugdet.RCSEOptions{InvariantTrigger: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Printf("production run recorded under RCSE: %s\n", ev.Recording.Summary())
	if ev.RCSESetup != nil && ev.RCSESetup.InvariantTrigger != nil {
		fmt.Printf("invariant trigger fired %d times (violations of conservation)\n",
			ev.RCSESetup.InvariantTrigger.Fired())
	}
	fmt.Printf("replay fidelity: DF = %.2f — the lost-update root cause is reproduced\n", ev.Utility.DF)
}
