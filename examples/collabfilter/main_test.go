package main

// Example runs the whole demo, so the test suite checks every line it
// prints.
func Example() {
	main()
	// Output:
	// ratings: 8000 items x 600 users, 27767 ratings (mean 46 per user)
	//
	// K-MH found 7431 taste-neighbour pairs (similarity >= 0.15)
	// 7431/7431 neighbour pairs share a genre (sanity check on the planted structure)
	//
	// strongest pair: users 322 and 488 (similarity 0.34, genres 8/8)
	// user 322 can be recommended 32 items from user 488's history
}
