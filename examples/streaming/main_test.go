package main

// Example runs the whole demo, so the test suite checks every line it
// prints.
func Example() {
	main()
	// Output:
	// wrote weblog.arows: 15000 clients x 1500 URLs in 234016 bytes
	//
	// disk-resident K-MH: 723 pairs, 2 file passes (30000 rows scanned, 468032 bytes read)
	// out-of-core K-MH:   723 pairs, 60 shards streamed, 1768 spill runs (64720 bytes)
	//   band  1/20: +524 pairs (total 524)
	// progressive M-LSH stopped with 524 verified pairs; strongest: (0,1) sim 1.00
}
