// Friend recommendation (paper Section 1.2, case i).
//
// Modern friend recommendation relies on similar preferences rather
// than graph links: "people with similar interests follow user y", or
// VK's "you have p% similar taste in Music with y". CSJ supplies those
// pairs directly: join the subscriber bases of two communities the user
// belongs to, and every matched one-to-one pair is a taste-twin
// recommendation — no social-link information needed, so the result set
// is not limited to a few hops around the user.
//
// Run with: go run ./examples/friends
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	csj "github.com/opencsj/csj"
)

var categories = []string{
	"Entertainment", "Hobbies", "Relationship_family", "Beauty_health",
	"Media", "Social_public", "Sport", "Internet", "Education",
	"Celebrity", "Animals", "Music", "Culture_art", "Food_recipes",
	"Tourism_leisure", "Auto_motor", "Products_stores", "Home_renovation",
	"Cities_countries", "Professional_Services", "Medicine",
	"Finance_insurance", "Restaurants", "Job_search",
	"Transportation_Services", "Consumer_Services", "Communication_Services",
}

const epsilon = 2 // slightly relaxed: taste twins, not duplicates

func profile(rng *rand.Rand) csj.Vector {
	u := make(csj.Vector, len(categories))
	likes := 150 + rng.Intn(300)
	for i := 0; i < likes; i++ {
		u[rng.Intn(len(categories))]++
	}
	return u
}

func main() {
	rng := rand.New(rand.NewSource(99))

	// Two communities of one platform: a guitar page and a hiking page.
	// Some people follow both or have near-identical tastes.
	guitars := &csj.Community{Name: "Acoustic Guitars"}
	hiking := &csj.Community{Name: "Alpine Hiking"}
	for i := 0; i < 900; i++ {
		guitars.Users = append(guitars.Users, profile(rng))
	}
	for i := 0; i < 1100; i++ {
		hiking.Users = append(hiking.Users, profile(rng))
	}
	// Plant taste twins: 180 hikers whose profiles differ from a guitar
	// subscriber's by at most epsilon in a couple of categories.
	for i, idx := range rng.Perm(guitars.Size())[:180] {
		twin := make(csj.Vector, len(categories))
		copy(twin, guitars.Users[idx])
		for k := 0; k < 2; k++ {
			j := rng.Intn(len(twin))
			twin[j] += rng.Int31n(2*epsilon+1) - epsilon
			if twin[j] < 0 {
				twin[j] = 0
			}
		}
		hiking.Users[i] = twin
	}

	b, a := csj.Orient(guitars, hiking)
	res, err := csj.Similarity(context.Background(), b, a, csj.ExMinMax, &csj.Options{Epsilon: epsilon})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("joined %q (%d users) with %q (%d users): %d taste-twin pairs (%.1f%% similarity, %v)\n\n",
		b.Name, b.Size(), a.Name, a.Size(), len(res.Pairs), 100*res.Similarity, res.Elapsed)

	fmt.Println("Sample friend recommendations:")
	for _, p := range res.Pairs[:min(5, len(res.Pairs))] {
		ub, ua := b.Users[p.B], a.Users[p.A]
		// Phrase the notification like VK does: % similar taste in the
		// user's strongest shared category.
		best, bestVal := 0, int32(-1)
		for j := range ub {
			if v := minI32(ub[j], ua[j]); v > bestVal {
				best, bestVal = j, v
			}
		}
		shared := 0
		for j := range ub {
			d := ub[j] - ua[j]
			if d < 0 {
				d = -d
			}
			if d == 0 {
				shared++
			}
		}
		pct := 100 * shared / len(ub)
		fmt.Printf("  notify %s user #%d: \"you have %d%% similar taste in %s with %s user #%d\"\n",
			b.Name, p.B, pct, categories[best], a.Name, p.A)
	}
}

func minI32(x, y int32) int32 {
	if x < y {
		return x
	}
	return y
}
