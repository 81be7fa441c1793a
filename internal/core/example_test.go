package core_test

import (
	"fmt"
	"log"

	"dyncontract/internal/core"
	"dyncontract/internal/effort"
	"dyncontract/internal/worker"
)

// Example designs a contract for a single honest worker and prints the
// Stackelberg outcome: the worker's best response and the requester's
// utility bracketed by the Theorem 4.1 bounds.
func Example() {
	// ψ(y) = −0.02y² + 2y + 1, increasing on [0, 40].
	psi, err := effort.NewQuadratic(-0.02, 2, 1, 40)
	if err != nil {
		log.Fatal(err)
	}
	part, err := effort.NewPartition(10, 4)
	if err != nil {
		log.Fatal(err)
	}
	alice, err := worker.NewHonest("alice", psi, 1, part.YMax())
	if err != nil {
		log.Fatal(err)
	}

	res, err := core.DesignInto(alice, core.Config{Part: part, Mu: 1, W: 1}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("k_opt=%d effort=%.2f pay=%.2f\n", res.KOpt, res.Response.Effort, res.Response.Compensation)
	fmt.Printf("bounds hold: %v\n",
		res.LowerBound <= res.RequesterUtility && res.RequesterUtility <= res.UpperBound)
	// Output:
	// k_opt=7 effort=25.47 pay=25.64
	// bounds hold: true
}

// ExampleClassify shows Lemma 4.1's case analysis: where a worker's
// utility peaks within one effort interval, as a function of the contract
// slope on that interval.
func ExampleClassify() {
	psi, _ := effort.NewQuadratic(-0.02, 2, 1, 40)
	part, _ := effort.NewPartition(10, 4)
	alice, _ := worker.NewHonest("alice", psi, 1, part.YMax())

	l := 3 // the interval [8, 12)
	low := core.CaseBoundaryLower(alice, part, l)
	high := core.CaseBoundaryUpper(alice, part, l)
	fmt.Printf("shallow slope: Case %v\n", core.Classify(alice, part, l, low-0.1))
	fmt.Printf("medium slope:  Case %v\n", core.Classify(alice, part, l, (low+high)/2))
	fmt.Printf("steep slope:   Case %v\n", core.Classify(alice, part, l, high+0.1))
	// Output:
	// shallow slope: Case I
	// medium slope:  Case III
	// steep slope:   Case II
}
