package reader

import (
	"fmt"
	"strconv"

	"ivn/internal/radio"
	"ivn/internal/rng"
)

// DecodeFault corrupts uplink captures at the reader — the injection seam
// for CIB-PLL-relock-mid-capture faults that break coherent averaging.
// Implementations must be pure functions of the exchange/attempt
// coordinates and their own state (see ivn/internal/fault). A nil
// DecodeFault is a clean capture chain.
type DecodeFault interface {
	// CaptureCorrupted reports whether decode attempt `attempt` of
	// exchange `exchange` observes an unusable capture.
	CaptureCorrupted(exchange, attempt int) bool
}

// AttemptOutcome classifies one decode attempt of a retried exchange.
type AttemptOutcome int

// Attempt outcomes.
const (
	// AttemptOK: the capture decoded above threshold.
	AttemptOK AttemptOutcome = iota
	// AttemptCorrupted: the fault layer destroyed the capture before
	// decoding (e.g. a PLL re-lock mid-capture).
	AttemptCorrupted
	// AttemptDecodeFailed: the capture was intact but the decoder could
	// not clear the correlation threshold (noise, interference).
	AttemptDecodeFailed
)

// String names the outcome.
func (o AttemptOutcome) String() string {
	switch o {
	case AttemptOK:
		return "ok"
	case AttemptCorrupted:
		return "corrupted"
	case AttemptDecodeFailed:
		return "decode-failed"
	default:
		return fmt.Sprintf("AttemptOutcome(%d)", int(o))
	}
}

// RetryResult is the accounting of a retried uplink decode: the final
// result (nil when every attempt failed) plus the per-attempt outcomes in
// order, so experiments can separate fault-induced losses from
// noise-induced ones and charge each retry to the link budget.
type RetryResult struct {
	// Result is the successful decode, nil when the budget was exhausted.
	Result *DecodeResult
	// Attempts records each attempt's outcome in order; the last entry is
	// AttemptOK exactly when Result is non-nil.
	Attempts []AttemptOutcome
}

// Succeeded reports whether any attempt decoded.
func (r *RetryResult) Succeeded() bool { return r.Result != nil }

// DecodeUplinkWithRetry runs DecodeUplink with a bounded retry budget:
// up to 1+retries attempts, each with an independent noise realization
// (a real reader re-captures the backscatter on retry — the tag holds its
// reply until the next reader command). exchange identifies this decode
// for the fault layer; fault may be nil. retries < 0 is an error, so a
// zero-value budget means exactly one attempt.
func (r *Reader) DecodeUplinkWithRetry(exchange, retries int, fault DecodeFault, bs []float64, linkGain complex128, jamPowers []radio.ToneAt, nbits int, rnd *rng.Rand) (*RetryResult, error) {
	if retries < 0 {
		return nil, fmt.Errorf("reader: retry budget %d < 0", retries)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	out := &RetryResult{}
	// Each attempt's stream is Split("attempt-<n>"), split into a stack
	// value over a stack label.
	var attemptRand rng.Rand
	var label [24]byte
	for attempt := 0; attempt <= retries; attempt++ {
		if fault != nil && fault.CaptureCorrupted(exchange, attempt) {
			out.Attempts = append(out.Attempts, AttemptCorrupted)
			continue
		}
		rnd.SplitBytesInto(&attemptRand, strconv.AppendInt(append(label[:0], "attempt-"...), int64(attempt), 10))
		res, err := r.DecodeUplink(bs, linkGain, jamPowers, nbits, &attemptRand)
		if err != nil {
			out.Attempts = append(out.Attempts, AttemptDecodeFailed)
			continue
		}
		out.Attempts = append(out.Attempts, AttemptOK)
		out.Result = res
		return out, nil
	}
	return out, nil
}
