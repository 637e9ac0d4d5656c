// Collabfilter: the collaborative-filtering application from the
// paper's introduction. Rows are items, columns are users; two users
// are "taste neighbours" when their item sets are similar, and a
// high-confidence rule u => v means v liked almost everything u liked
// — useful for recommending v's remaining items to u even when both
// users are far too inactive to pass any support threshold.
//
// Run with: go run ./examples/collabfilter
package main

import (
	"fmt"
	"log"

	"assocmine"
)

const (
	numItems = 8000
	numUsers = 600
	// A few genres; users mostly sample items from their home genre.
	numGenres = 12
)

func main() {
	// Build a synthetic ratings matrix: rows are items, columns users.
	// Each genre owns a contiguous item block; each user draws most
	// items from one genre (heavy-rater users exist but are rare, so
	// support pruning would discard almost everyone).
	rowSets := make([][]int, numItems)
	seed := uint64(12345)
	next := func() uint64 { // splitmix64 stream, deterministic example
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	randFloat := func() float64 { return float64(next()>>11) / (1 << 53) }
	randInt := func(n int) int { return int(next() % uint64(n)) }

	genreOfUser := make([]int, numUsers)
	for u := 0; u < numUsers; u++ {
		genreOfUser[u] = randInt(numGenres)
	}
	itemsPerGenre := numItems / numGenres
	const hitsPerGenre = 80 // each genre has a small set of popular items
	for u := 0; u < numUsers; u++ {
		g := genreOfUser[u]
		// 30-80 ratings: ~70% from the genre's hits, ~20% from its long
		// tail, ~10% anywhere. The hit overlap is what makes same-genre
		// users similar.
		n := 30 + randInt(51)
		for i := 0; i < n; i++ {
			var item int
			switch r := randFloat(); {
			case r < 0.7:
				item = g*itemsPerGenre + randInt(hitsPerGenre)
			case r < 0.9:
				item = g*itemsPerGenre + randInt(itemsPerGenre)
			default:
				item = randInt(numItems)
			}
			rowSets[item] = append(rowSets[item], u)
		}
	}
	data, err := assocmine.NewDatasetFromRows(numUsers, rowSets)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ratings: %d items x %d users, %d ratings (mean %.0f per user)\n\n",
		numItems, numUsers, data.Ones(), float64(data.Ones())/numUsers)

	// Taste neighbours: user pairs with similar item sets. Support of
	// any single user is ~0.5% of items, so this is firmly in the
	// support-free regime.
	res, err := assocmine.SimilarPairs(data, assocmine.Config{
		Algorithm: assocmine.KMinHash,
		Threshold: 0.15,
		K:         120,
		Seed:      99,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("K-MH found %d taste-neighbour pairs (similarity >= 0.15)\n", len(res.Pairs))
	sameGenre := 0
	for _, p := range res.Pairs {
		if genreOfUser[p.I] == genreOfUser[p.J] {
			sameGenre++
		}
	}
	fmt.Printf("%d/%d neighbour pairs share a genre (sanity check on the planted structure)\n\n",
		sameGenre, len(res.Pairs))

	// Recommend: for the strongest neighbour pair, items v rated that
	// u has not.
	if len(res.Pairs) > 0 {
		u, v := res.Pairs[0].I, res.Pairs[0].J
		fmt.Printf("strongest pair: users %d and %d (similarity %.2f, genres %d/%d)\n",
			u, v, res.Pairs[0].Similarity, genreOfUser[u], genreOfUser[v])
		uItems := map[int]bool{}
		for item, users := range rowSets {
			for _, uu := range users {
				if uu == u {
					uItems[item] = true
				}
			}
		}
		recs := 0
		for item, users := range rowSets {
			for _, uu := range users {
				if uu == v && !uItems[item] {
					recs++
				}
			}
		}
		fmt.Printf("user %d can be recommended %d items from user %d's history\n", u, recs, v)
	}
}
