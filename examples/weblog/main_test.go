package main

// Example runs the whole demo, so the test suite checks every line it
// prints.
func Example() {
	main()
	// Output:
	// web log: 20000 client IPs x 2000 URLs, density 0.4284%
	//
	// optimizer chose r=3, l=6 (k=18 min-hashes; predicted FN=4.4 FP=1498)
	//
	// M-LSH found 830 similar URL pairs
	// 481/830 found pairs are embedded resources of the same parent page
	//   /url0000 <-> /url0002  sim=1.00 (fetched by 14 and 14 clients)
	//   /url0008 <-> /url0011  sim=1.00 (fetched by 10 and 10 clients)
	//   /url0008 <-> /url0012  sim=1.00 (fetched by 10 and 10 clients)
	//   /url0009 <-> /url0010  sim=1.00 (fetched by 9 and 9 clients)
	//   /url0011 <-> /url0012  sim=1.00 (fetched by 10 and 10 clients)
	//   /url0027 <-> /url0028  sim=1.00 (fetched by 23 and 23 clients)
	//   /url0027 <-> /url0029  sim=1.00 (fetched by 23 and 23 clients)
	//   /url0027 <-> /url0030  sim=1.00 (fetched by 23 and 23 clients)
	//   /url0028 <-> /url0029  sim=1.00 (fetched by 23 and 23 clients)
	//   /url0028 <-> /url0030  sim=1.00 (fetched by 23 and 23 clients)
}
