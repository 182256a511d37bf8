package stats

import "testing"

func TestStreamEmpty(t *testing.T) {
	var s Stream
	if s.Mean() != 0 {
		t.Fatalf("empty stream mean %v, want 0", s.Mean())
	}
}

func TestStreamMatchesBatch(t *testing.T) {
	xs := []float64{3.5, -1.25, 0, 7.75, 2.5, 2.5, -4}
	var s Stream
	sum := 0.0
	for _, x := range xs {
		s.Add(x)
		sum += x
	}
	// Mean must be the plain running sum divided by n — bit-for-bit the
	// reduction the experiment loops historically performed.
	if s.Mean() != sum/float64(len(xs)) {
		t.Fatalf("Mean = %v, want %v", s.Mean(), sum/float64(len(xs)))
	}
}

func TestStreamSingleValue(t *testing.T) {
	var s Stream
	s.Add(-2.5)
	if s.Mean() != -2.5 {
		t.Fatalf("single-value stream mean %v, want -2.5", s.Mean())
	}
}
