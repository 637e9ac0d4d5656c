package main

// Example runs the whole demo, so the test suite checks every line it
// prints.
func Example() {
	main()
	// Output:
	// dataset: 1000 baskets x 5 items, 804 entries
	//
	// BruteForce found 1 pair(s):
	//   caviar <-> vodka  (similarity 1.00, support 1.0%)
	// MH         found 1 pair(s):
	//   caviar <-> vodka  (similarity 1.00, support 1.0%)
	// K-MH       found 1 pair(s):
	//   caviar <-> vodka  (similarity 1.00, support 1.0%)
	// M-LSH      found 1 pair(s):
	//   caviar <-> vodka  (similarity 1.00, support 1.0%)
	// H-LSH      found 1 pair(s):
	//   caviar <-> vodka  (similarity 1.00, support 1.0%)
	//
	// high-confidence rules (conf >= 0.95):
	//   caviar => vodka  (confidence 1.00)
	//   vodka => caviar  (confidence 1.00)
}
