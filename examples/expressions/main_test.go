package main

// Example runs the whole demo, so the test suite checks every line it
// prints.
func Example() {
	main()
	// Output:
	// catalogue: 30000 baskets x 6 products
	//
	// conf(grinder => espresso)              = 0.47
	// conf(grinder => espresso ∨ moka-pot)   = 1.00   <- the §7 disjunctive rule
	//
	// estimated |teapot ∧ loose-tea| = 1334 (exact 1333)
	//
	// mutually exclusive product pairs (lift << 1):
	//   espresso / moka-pot: observed 0 of expected 47 co-purchases (lift 0.00)
	//   espresso / teapot: observed 0 of expected 66 co-purchases (lift 0.00)
	//   espresso / loose-tea: observed 0 of expected 53 co-purchases (lift 0.00)
	//   moka-pot / teapot: observed 0 of expected 66 co-purchases (lift 0.00)
	//   moka-pot / loose-tea: observed 0 of expected 53 co-purchases (lift 0.00)
	//   grinder / teapot: observed 0 of expected 132 co-purchases (lift 0.00)
	//   grinder / loose-tea: observed 0 of expected 105 co-purchases (lift 0.00)
	//
	// measure panel for (teapot, loose-tea):
	//   jaccard 0.80  confidence 0.80  lift 17.9  conviction 4.68  chi² 23590
}
