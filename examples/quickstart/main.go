// Quickstart: the paper's Section 3 worked example, end to end.
//
// Two communities with d=3 categories (Music, Sport, Education) are
// joined with epsilon=1. The exact method matches both users of B
// (similarity 100%); a greedy approximate method can lose a pair.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	csj "github.com/opencsj/csj"
)

func main() {
	// b1 = {Music: 3, Sport: 4, Education: 2}, b2 = {Music: 2, ...}
	b := &csj.Community{Name: "Brand B", Users: []csj.Vector{
		{3, 4, 2},
		{2, 2, 3},
	}}
	a := &csj.Community{Name: "Brand A", Users: []csj.Vector{
		{2, 3, 5},
		{2, 3, 1},
		{3, 3, 3},
	}}

	// The CSJ precondition holds: |B|=2 >= ceil(|A|/2)=2.
	fmt.Printf("joining %q (%d users) with %q (%d users), eps=1\n\n",
		b.Name, b.Size(), a.Name, a.Size())

	for _, method := range []csj.Method{csj.ApMinMax, csj.ExMinMax} {
		res, err := csj.Similarity(context.Background(), b, a, method, &csj.Options{Epsilon: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s similarity = %3.0f%%  pairs:", method, 100*res.Similarity)
		for _, p := range res.Pairs {
			fmt.Printf(" <b%d,a%d>", p.B+1, p.A+1)
		}
		fmt.Printf("  (%v)\n", res.Elapsed)
	}

	// The paper's workflow: a fast approximate pass prefilters community
	// pairs, then the exact method refines the survivors. Events show
	// how much work the MinMax encoding saved.
	res, err := csj.Similarity(context.Background(), b, a, csj.ExMinMax, &csj.Options{Epsilon: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nEx-MinMax events: %d min-prunes, %d no-overlaps, %d d-dim comparisons, %d CSF calls\n",
		res.Events.MinPrunes, res.Events.NoOverlaps, res.Events.Comparisons(), res.Events.CSFCalls)
}
