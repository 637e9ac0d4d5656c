package minhash

// agreement returns the number of hash indices on which columns i and j
// have identical min-hash values. Sentinel (empty-column) values never
// count as agreement, matching the convention S(∅, ∅) = 0.
func (s *Signatures) agreement(i, j int) int {
	n := 0
	for l := 0; l < s.K; l++ {
		v := s.Vals[l*s.M+i]
		if v != Empty && v == s.Vals[l*s.M+j] {
			n++
		}
	}
	return n
}

// Estimate returns Ŝ(c_i, c_j), the fraction of agreeing min-hash
// values (Definition 1).
func (s *Signatures) Estimate(i, j int) float64 {
	return float64(s.agreement(i, j)) / float64(s.K)
}
