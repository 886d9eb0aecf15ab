// Business partner recommendation (paper Section 1.2, case ii.a).
//
// A luxury brand ("Dior") wants a new ambassador. Its current
// ambassador's fan community is compared against several candidate
// celebrities' fan communities. The paper's two-phase workflow is used:
// a fast approximate pass (Ap-MinMax) prefilters the candidates, then
// the exact method (Ex-MinMax) refines the survivors, and the final
// recommendation uses only the precise results.
//
// Run with: go run ./examples/partners
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sort"

	csj "github.com/opencsj/csj"
)

const (
	dims    = 27
	epsilon = 1
)

// fanbase synthesizes a celebrity fan community: overlap controls what
// fraction of its subscribers are shared with the reference community
// (the same people, hence identical profiles — CSJ's guaranteed
// matches).
func fanbase(rng *rand.Rand, name string, size int, ref *csj.Community, overlap float64) *csj.Community {
	users := make([]csj.Vector, 0, size)
	shared := int(overlap * float64(size))
	for _, idx := range rng.Perm(ref.Size())[:shared] {
		u := make(csj.Vector, dims)
		copy(u, ref.Users[idx])
		users = append(users, u)
	}
	for len(users) < size {
		users = append(users, randomProfile(rng))
	}
	rng.Shuffle(len(users), func(i, j int) { users[i], users[j] = users[j], users[i] })
	return &csj.Community{Name: name, Users: users}
}

// randomProfile draws a profile with a few hundred likes spread over
// the categories — enough entropy that unrelated users almost never
// match at eps=1.
func randomProfile(rng *rand.Rand) csj.Vector {
	u := make(csj.Vector, dims)
	likes := 100 + rng.Intn(400)
	for i := 0; i < likes; i++ {
		u[rng.Intn(dims)]++
	}
	return u
}

func main() {
	rng := rand.New(rand.NewSource(42))

	// The current ambassador's fan community (reference audience).
	theron := &csj.Community{Name: "Charlize Theron fans"}
	for i := 0; i < 1200; i++ {
		theron.Users = append(theron.Users, randomProfile(rng))
	}

	// Candidate ambassadors with varying audience overlap.
	candidates := []*csj.Community{
		fanbase(rng, "Candidate: Marion Cotillard", 1400, theron, 0.34),
		fanbase(rng, "Candidate: Kate Winslet", 1300, theron, 0.22),
		fanbase(rng, "Candidate: Emma Stone", 1500, theron, 0.08),
		fanbase(rng, "Candidate: Zendaya", 1600, theron, 0.27),
	}

	// Phase 1: fast approximate prefilter.
	fmt.Println("Phase 1 — approximate prefilter (Ap-MinMax):")
	type scored struct {
		c   *csj.Community
		sim float64
	}
	var survivors []scored
	for _, cand := range candidates {
		b, a := csj.Orient(theron, cand)
		res, err := csj.Similarity(context.Background(), b, a, csj.ApMinMax, &csj.Options{Epsilon: epsilon})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-32s ~%5.1f%%  (%v)\n", cand.Name, 100*res.Similarity, res.Elapsed)
		if res.Similarity >= 0.15 { // the paper's case-study floor
			survivors = append(survivors, scored{c: cand})
		}
	}

	// Phase 2: exact refinement of the survivors only.
	fmt.Println("\nPhase 2 — exact refinement (Ex-MinMax) of the survivors:")
	for i := range survivors {
		b, a := csj.Orient(theron, survivors[i].c)
		res, err := csj.Similarity(context.Background(), b, a, csj.ExMinMax, &csj.Options{Epsilon: epsilon})
		if err != nil {
			log.Fatal(err)
		}
		survivors[i].sim = res.Similarity
		fmt.Printf("  %-32s %6.2f%%  (%v)\n", survivors[i].c.Name, 100*res.Similarity, res.Elapsed)
	}
	sort.Slice(survivors, func(i, j int) bool { return survivors[i].sim > survivors[j].sim })

	if len(survivors) == 0 {
		fmt.Println("\nNo candidate shares enough audience for a partnership.")
		return
	}
	fmt.Printf("\nRecommended next brand ambassador: %s (%.2f%% audience similarity)\n",
		survivors[0].c.Name, 100*survivors[0].sim)
}
