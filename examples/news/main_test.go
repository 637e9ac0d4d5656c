package main

// Example runs the whole demo, so the test suite checks every line it
// prints.
func Example() {
	main()
	// Output:
	// news corpus: 20000 documents, 3040 words, 0.9902% dense
	//
	// M-LSH found 38 similar word pairs:
	//   (mardi, gras)  sim=0.98 support=0.200%  <- Fig. 1 collocation
	//   (pneumocystis, carinii)  sim=0.93 support=0.215%  <- Fig. 1 collocation
	//   (encyclopedia, britannica)  sim=0.93 support=0.725%  <- Fig. 1 collocation
	//   (presse, agence)  sim=0.93 support=0.490%  <- Fig. 1 collocation
	//   (w00000, w00001)  sim=0.93 support=99.655%
	//   (avant, garde)  sim=0.92 support=0.635%  <- Fig. 1 collocation
	//   (meryl, streep)  sim=0.92 support=0.375%  <- Fig. 1 collocation
	//   (mache, papier)  sim=0.91 support=1.065%  <- Fig. 1 collocation
	//   (meseo, oceania)  sim=0.91 support=0.425%  <- Fig. 1 collocation
	//   (emperor, hirohito)  sim=0.91 support=0.435%  <- Fig. 1 collocation
	//   (dalai, lama)  sim=0.91 support=0.155%  <- Fig. 1 collocation
	//   (buenos, aires)  sim=0.89 support=0.770%  <- Fig. 1 collocation
	//   (bertolt, brecht)  sim=0.88 support=0.520%  <- Fig. 1 collocation
	//   (hors, oeuvres)  sim=0.88 support=0.380%  <- Fig. 1 collocation
	//   (darth, vader)  sim=0.88 support=0.930%  <- Fig. 1 collocation
	//   (cosa, nostra)  sim=0.87 support=0.135%  <- Fig. 1 collocation
	//   (fibrosis, cystic)  sim=0.87 support=0.480%  <- Fig. 1 collocation
	//   (salman, satanic)  sim=0.86 support=0.900%  <- Fig. 1 collocation
	//   (w00000, w00002)  sim=0.82 support=99.655%
	//   (w00001, w00002)  sim=0.78 support=92.980%
	//   (karpov, soviet)  sim=0.76 support=0.360%
	//   (timman, karpov)  sim=0.75 support=0.340%
	//   (timman, soviet)  sim=0.73 support=0.340%
	//   (w00000, w00003)  sim=0.73 support=99.655%
	//   (chess, ivanchuk)  sim=0.71 support=0.320%
	//   (karpov, polgar)  sim=0.71 support=0.360%
	//   (karpov, ivanchuk)  sim=0.71 support=0.360%
	//   (soviet, ivanchuk)  sim=0.71 support=0.360%
	//   (chess, soviet)  sim=0.70 support=0.320%
	//   (w00001, w00003)  sim=0.69 support=92.980%
	//   (chess, timman)  sim=0.69 support=0.320%
	//   (timman, polgar)  sim=0.66 support=0.340%
	//   (ivanchuk, polgar)  sim=0.66 support=0.340%
	//   (chess, karpov)  sim=0.66 support=0.320%
	//   (timman, ivanchuk)  sim=0.66 support=0.340%
	//   (w00000, w00004)  sim=0.65 support=99.655%
	//   (w00002, w00003)  sim=0.63 support=82.615%
	//   (w00001, w00004)  sim=0.62 support=92.980%
	// recovered 17/17 planted collocations
	//
	// planted cluster similarities (the paper's chess cluster):
	//   (chess, timman): 0.69
	//   (chess, karpov): 0.66
	//   (chess, soviet): 0.70
	//   (chess, ivanchuk): 0.71
	//   (chess, polgar): 0.68
	//   (timman, karpov): 0.75
	//   (timman, soviet): 0.73
	//   (timman, ivanchuk): 0.66
	//   (timman, polgar): 0.66
	//   (karpov, soviet): 0.76
	//   (karpov, ivanchuk): 0.71
	//   (karpov, polgar): 0.71
	//   (soviet, ivanchuk): 0.71
	//   (soviet, polgar): 0.69
	//   (ivanchuk, polgar): 0.66
	//
	// a-priori comparison:
	//   support 0.05%: out of memory (the Fig. 4 '-' row)
	//   support 0.50%: 14 pairs, 6/17 planted collocations recovered (support pruning discards the rest)
	//   support 2.00%: 8 pairs, 0/17 planted collocations recovered (support pruning discards the rest)
}
