// Quickstart: run HUMO end to end on a synthetic workload.
//
// The program generates instance pairs whose match probability follows the
// paper's logistic curve, asks the hybrid optimizer for a division of the
// workload that guarantees precision >= 0.9 and recall >= 0.9 with 90%
// confidence, and reports the human cost and the quality actually achieved.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"humo"
)

func main() {
	// 1. A workload: instance pairs with a machine metric (here synthetic;
	// in practice the aggregated attribute similarity of candidate pairs).
	labeled, err := humo.Logistic(humo.LogisticConfig{
		N:     50000,
		Tau:   14,  // steepness of the match-proportion curve
		Sigma: 0.1, // per-subset irregularity
		Seed:  42,
	})
	if err != nil {
		log.Fatal(err)
	}
	pairs, truth := humo.Split(labeled)
	w, err := humo.NewWorkload(pairs, 0)
	if err != nil {
		log.Fatal(err)
	}

	// 2. The human: here a simulated oracle over the hidden ground truth.
	// Any implementation of humo.Oracle works — a review UI, a crowd
	// connector, an expert — as long as it answers each batch of pair ids
	// in the given order.
	human := humo.NewSimulatedOracle(truth)

	// 3. The quality requirement of Definition 1: precision and recall at
	// least 0.9, each with confidence 0.9.
	req := humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}

	// 4. Search for the cheapest human zone with the hybrid optimizer.
	sol, err := humo.Hybrid(w, req, human, humo.HybridConfig{
		Sampling: humo.SamplingConfig{Rand: rand.New(rand.NewSource(7))},
	})
	if err != nil {
		log.Fatal(err)
	}

	// 5. Resolve: machine labels D- and D+, the human labels DH.
	labels := sol.Resolve(w, human)

	// 6. Report. In production the truth is unknown; here we evaluate the
	// guarantee against it.
	quality, err := humo.Evaluate(labels, humo.TruthSlice(labeled))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload:    %d pairs in %d subsets\n", w.Len(), w.Subsets())
	fmt.Printf("solution:    %v\n", sol)
	fmt.Printf("human cost:  %d pairs (%.2f%% of the workload)\n",
		human.Cost(), 100*float64(human.Cost())/float64(w.Len()))
	fmt.Printf("quality:     %v (required >= %.2f / %.2f)\n", quality, req.Alpha, req.Beta)
}
