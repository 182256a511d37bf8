package stats

// Stream is a streaming mean over a sample fed one value at a time,
// without retaining the values. The trial engine folds per-trial samples
// into Streams in index order, so the aggregate — like everything else
// on a result path — is a pure function of the seed.
//
// The mean is a plain running sum (sum/n), deliberately matching the
// reduction the experiment loops historically performed so migrated
// tables stay byte-identical.
type Stream struct {
	n   int
	sum float64
}

// Add folds one value into the stream.
func (s *Stream) Add(x float64) {
	s.n++
	s.sum += x
}

// Mean returns sum/n, or 0 for an empty stream.
func (s *Stream) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}
