// Broadcast recommendation (paper Section 1.2, case ii.b).
//
// The online system compares a pivot brand ("Nike") against a variety
// of other brand pages with csj.Rank and schedules a prioritized
// broadcast: followers of Nike who do not follow the similar pages get
// them recommended at descending engagement-peak hours — the most
// similar brand at the highest peak hour, and so on.
//
// Run with: go run ./examples/broadcast
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	csj "github.com/opencsj/csj"
)

const (
	dims    = 27
	epsilon = 1
)

func profile(rng *rand.Rand) csj.Vector {
	u := make(csj.Vector, dims)
	likes := 100 + rng.Intn(400)
	for i := 0; i < likes; i++ {
		u[rng.Intn(dims)]++
	}
	return u
}

// brand synthesizes a page whose subscriber base shares `overlap` of
// the pivot's subscribers.
func brand(rng *rand.Rand, name string, size int, pivot *csj.Community, overlap float64) *csj.Community {
	users := make([]csj.Vector, 0, size)
	for _, idx := range rng.Perm(pivot.Size())[:int(overlap*float64(size))] {
		u := make(csj.Vector, dims)
		copy(u, pivot.Users[idx])
		users = append(users, u)
	}
	for len(users) < size {
		users = append(users, profile(rng))
	}
	rng.Shuffle(len(users), func(i, j int) { users[i], users[j] = users[j], users[i] })
	return &csj.Community{Name: name, Users: users}
}

func main() {
	rng := rand.New(rand.NewSource(7))

	nike := &csj.Community{Name: "Nike"}
	for i := 0; i < 1500; i++ {
		nike.Users = append(nike.Users, profile(rng))
	}
	pages := []*csj.Community{
		brand(rng, "Adidas", 1600, nike, 0.31),
		brand(rng, "Puma", 1400, nike, 0.22),
		brand(rng, "Reebok", 1300, nike, 0.12),
		brand(rng, "New Balance", 1700, nike, 0.18),
		brand(rng, "Gucci", 1550, nike, 0.03),
	}

	ranked, err := csj.Rank(context.Background(), nike, pages, csj.ExMinMax, &csj.Options{Epsilon: epsilon})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Community similarity ranking against Nike (Ex-MinMax):")
	for i, r := range ranked {
		if r.Skipped {
			fmt.Printf("  %d. %-12s skipped (size precondition)\n", i+1, r.Name)
			continue
		}
		if r.Err != nil {
			fmt.Printf("  %d. %-12s error: %v\n", i+1, r.Name, r.Err)
			continue
		}
		fmt.Printf("  %d. %-12s %6.2f%%  (%d matched pairs, %v)\n",
			i+1, r.Name, 100*r.Result.Similarity, len(r.Result.Pairs), r.Result.Elapsed)
	}

	// Prioritized broadcast: the paper's example assigns the most
	// similar page to the highest peak hour of user engagement.
	peakHours := []string{"20:00", "18:00", "13:00", "10:00", "08:00"}
	fmt.Println("\nPrioritized broadcast to Nike followers that do not follow the page yet:")
	slot := 0
	for _, r := range ranked {
		if r.Result == nil || slot >= len(peakHours) {
			continue
		}
		fmt.Printf("  at %s recommend %q\n", peakHours[slot], r.Name)
		slot++
	}
}
