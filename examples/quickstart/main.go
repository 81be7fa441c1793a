// Quickstart: design a dynamic contract for one honest worker and inspect
// what the theory promises.
//
// Run with:
//
//	go run ./examples/quickstart
//
// It walks the public API end to end: define an effort function ψ,
// partition the effort axis, design the contract with core.DesignInto, and
// compare the worker's predicted best response and the requester's utility
// against the Theorem 4.1 bounds.
package main

import (
	"fmt"
	"log"

	"dyncontract/internal/core"
	"dyncontract/internal/effort"
	"dyncontract/internal/worker"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quickstart: ")

	// 1. The worker's effort→feedback curve ψ(y) = −0.02y² + 2y + 1:
	//    concave (diminishing returns to effort) and increasing up to the
	//    apex at y = 50. We work on [0, 40].
	const yMax = 40.0
	psi, err := effort.NewQuadratic(-0.02, 2, 1, yMax)
	if err != nil {
		log.Fatalf("effort function: %v", err)
	}
	fmt.Println("effort function:", psi)

	// 2. Discretize the effort axis into m = 10 intervals (§III-A). Finer
	//    partitions approach the optimal contract (Fig. 6).
	part, err := effort.NewPartition(10, yMax/10)
	if err != nil {
		log.Fatalf("partition: %v", err)
	}

	// 3. An honest worker with effort-cost weight β = 1 (utility
	//    = compensation − β·effort).
	alice, err := worker.NewHonest("alice", psi, 1, part.YMax())
	if err != nil {
		log.Fatalf("worker: %v", err)
	}

	// 4. Design the contract: the requester weighs Alice's feedback at
	//    w = 1 and compensation at μ = 1 (utility = w·feedback − μ·pay).
	res, err := core.DesignInto(alice, core.Config{Part: part, Mu: 1, W: 1}, nil)
	if err != nil {
		log.Fatalf("design: %v", err)
	}

	fmt.Printf("\ndesigned contract: %v\n", res.Contract)
	fmt.Printf("target effort interval: k_opt = %d of %d\n", res.KOpt, part.M)
	fmt.Printf("\npredicted best response when Alice maximizes her own utility:\n")
	fmt.Printf("  effort        %.3f\n", res.Response.Effort)
	fmt.Printf("  feedback      %.3f\n", res.Response.Feedback)
	fmt.Printf("  compensation  %.3f\n", res.Response.Compensation)
	fmt.Printf("  her utility   %.3f\n", res.Response.Utility)

	fmt.Printf("\nrequester utility: %.3f\n", res.RequesterUtility)
	fmt.Printf("Theorem 4.1 bounds: [%.3f, %.3f]\n", res.LowerBound, res.UpperBound)

	// 5. Sanity check the incentive: Alice cannot do better by slacking
	//    off or overworking.
	for _, y := range []float64{0, res.Response.Effort / 2, res.Response.Effort * 1.2} {
		u := alice.Utility(res.Contract, y)
		fmt.Printf("  if Alice worked y=%.2f instead, her utility would be %.3f (vs %.3f)\n",
			y, u, res.Response.Utility)
	}
}
