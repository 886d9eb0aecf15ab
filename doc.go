// Package csj implements Community Similarity based on User Profile
// Joins (CSJ), the similarity-join operator of Theocharidis & Lauw,
// "Community Similarity based on User Profile Joins", EDBT 2024.
//
// Given two communities B and A (brand pages with subscribers), where
// every user is a d-dimensional vector of aggregate preference counters
// (one counter per category), CSJ computes how similar the communities
// are by matching users one-to-one: users b and a match when
// |b_i - a_i| <= epsilon for every dimension i, and
//
//	similarity(B, A) = |matched pairs| / |B|
//
// subject to the precondition ceil(|A|/2) <= |B| <= |A| (B is the
// less-followed community).
//
// The package provides the paper's full suite of six methods — three
// approximate (greedy, fast) and three exact (maximum one-to-one
// matching via the CSF heuristic or Hopcroft–Karp):
//
//	ApBaseline / ExBaseline   plain nested-loop joins
//	ApMinMax   / ExMinMax     the paper's contribution: sorted MinMax
//	                          encoding with MIN/MAX pruning
//	ApSuperEGO / ExSuperEGO   the adapted Super-EGO epsilon-join
//
// Quick start:
//
//	b := &csj.Community{Name: "Nike", Users: [][]int32{{3, 4, 2}, {2, 2, 3}}}
//	a := &csj.Community{Name: "Adidas", Users: [][]int32{{2, 3, 5}, {2, 3, 1}, {3, 3, 3}}}
//	res, err := csj.Similarity(context.Background(), b, a, csj.ExMinMax, &csj.Options{Epsilon: 1})
//	if err != nil { ... }
//	fmt.Printf("similarity = %.0f%%\n", 100*res.Similarity)
//
// The four query shapes — Similarity (one pair), Rank, TopK and
// SimilarityMatrix — take a context first: canceling it stops the
// scans at their next checkpoint. See Rank for the
// broadcast-recommendation use case (ordering many candidate
// communities by similarity to one community).
package csj
