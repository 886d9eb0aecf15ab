package csj_test

import (
	"context"
	"fmt"

	csj "github.com/opencsj/csj"
)

// The paper's Section 3 worked example: two communities with three
// category dimensions (Music, Sport, Education), joined with epsilon 1.
func ExampleSimilarity() {
	b := &csj.Community{Name: "Brand B", Users: []csj.Vector{
		{3, 4, 2}, // b1
		{2, 2, 3}, // b2
	}}
	a := &csj.Community{Name: "Brand A", Users: []csj.Vector{
		{2, 3, 5}, // a1
		{2, 3, 1}, // a2
		{3, 3, 3}, // a3
	}}
	res, err := csj.Similarity(context.Background(), b, a, csj.ExMinMax, &csj.Options{Epsilon: 1})
	if err != nil {
		panic(err)
	}
	fmt.Printf("similarity = %.0f%%\n", 100*res.Similarity)
	for _, p := range res.Pairs {
		fmt.Printf("matched b%d with a%d\n", p.B+1, p.A+1)
	}
	// Pairs are reported in encoded order (b2 has the smaller profile
	// total, so it is scanned first).
	// Output:
	// similarity = 100%
	// matched b2 with a3
	// matched b1 with a2
}

func ExampleParseMethod() {
	m, err := csj.ParseMethod("ex-minmax")
	if err != nil {
		panic(err)
	}
	fmt.Println(m, m.IsExact())
	// Output: Ex-MinMax true
}

func ExampleOrient() {
	big := &csj.Community{Name: "big", Users: []csj.Vector{{1}, {2}, {3}}}
	small := &csj.Community{Name: "small", Users: []csj.Vector{{1}, {2}}}
	b, a := csj.Orient(big, small)
	fmt.Println(b.Name, a.Name)
	// Output: small big
}

func ExampleIncrementalJoin() {
	join, err := csj.NewIncrementalJoin(2, &csj.Options{Epsilon: 1})
	if err != nil {
		panic(err)
	}
	// A user follows both communities: an immediate match.
	bID, _ := join.AddB(csj.Vector{4, 7})
	_, _ = join.AddA(csj.Vector{5, 6})
	fmt.Println("matched:", join.Matched())

	// The user unfollows B: the match disappears.
	_ = join.RemoveB(bID)
	fmt.Println("matched:", join.Matched())
	// Output:
	// matched: 1
	// matched: 0
}

func ExampleTopK() {
	pivot := &csj.Community{Name: "Dior", Users: []csj.Vector{{7, 2}, {1, 8}}}
	candidates := []*csj.Community{
		{Name: "Chanel", Users: []csj.Vector{{7, 2}, {1, 8}}},   // same audience
		{Name: "Longines", Users: []csj.Vector{{7, 3}, {0, 0}}}, // half shared
		{Name: "Casio", Users: []csj.Vector{{50, 50}, {60, 0}}}, // unrelated
	}
	top, err := csj.TopK(context.Background(), pivot, candidates, 2, &csj.Options{Epsilon: 1})
	if err != nil {
		panic(err)
	}
	for _, r := range top {
		fmt.Printf("%s %.0f%%\n", r.Name, 100*r.Result.Similarity)
	}
	// Output:
	// Chanel 100%
	// Longines 50%
}

func ExampleSimilarityMatrix() {
	a := &csj.Community{Name: "a", Users: []csj.Vector{{1, 1}, {4, 4}}}
	b := &csj.Community{Name: "b", Users: []csj.Vector{{1, 1}, {4, 4}}}
	c := &csj.Community{Name: "c", Users: []csj.Vector{{9, 0}, {0, 9}}}
	entries, err := csj.SimilarityMatrix(context.Background(), []*csj.Community{a, b, c}, csj.ExMinMax,
		&csj.Options{Epsilon: 0})
	if err != nil {
		panic(err)
	}
	for _, e := range entries {
		fmt.Printf("(%d,%d) %.0f%%\n", e.I, e.J, 100*e.Result.Similarity)
	}
	// Output:
	// (0,1) 100%
	// (0,2) 0%
	// (1,2) 0%
}

func ExampleRank() {
	pivot := &csj.Community{Name: "Nike", Users: []csj.Vector{{5, 1}, {2, 6}}}
	adidas := &csj.Community{Name: "Adidas", Users: []csj.Vector{{5, 1}, {2, 6}}} // same fans
	gucci := &csj.Community{Name: "Gucci", Users: []csj.Vector{{90, 0}, {0, 90}}}
	ranked, err := csj.Rank(context.Background(), pivot, []*csj.Community{gucci, adidas}, csj.ExMinMax,
		&csj.Options{Epsilon: 1})
	if err != nil {
		panic(err)
	}
	for _, r := range ranked {
		fmt.Printf("%s %.0f%%\n", r.Name, 100*r.Result.Similarity)
	}
	// Output:
	// Adidas 100%
	// Gucci 0%
}
