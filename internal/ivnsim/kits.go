package ivnsim

import (
	"ivn/internal/baseline"
	"ivn/internal/link"
	"ivn/internal/radio"
	"ivn/internal/rng"
	"ivn/internal/scenario"
	"ivn/internal/session"
	"ivn/internal/tag"
)

// Worker kits: the one implementation of a gain or comm trial. A kit is
// handed to one scheduler worker via engine.Scratches and reused across
// every trial (and sweep point) that worker runs, which is what removes
// the per-trial allocation floors of the Fig9/Fig13 experiments; a
// one-shot call (MeasureGains, RunCommTrial) is a fresh kit used once.
// A reused kit draws exactly the variate sequences of a fresh one — the
// golden tables and TestKitsReusedMatchFresh pin this — and must never
// be shared between concurrently running trials.

// gainKit is one worker's reusable state for gain trials (Fig9-12): the
// realized placement (channels + ray buffers), the link layer's trial kit
// (its beamformer relocked, not rebuilt, while the antenna count and
// carrier are stable), and the carrier buffer of the same-frequency
// baselines.
type gainKit struct {
	placement scenario.Placement
	lk        link.TrialKit
	carr      []radio.Carrier
	single    [1]radio.Carrier
	child     rng.Rand
}

func newGainKit() any { return new(gainKit) }

// realize realizes the placement and its CIB link into retained storage.
// Draw order: placement draws, then the link's "cib" split + PLL locks.
func (k *gainKit) realize(sc scenario.Scenario, n int, tr *session.Trace, r *rng.Rand) (*link.Link, error) {
	if err := scenario.RealizeInto(sc, &k.placement, n, r); err != nil {
		return nil, err
	}
	return k.lk.ForTrial(&k.placement, n, tr, r)
}

// singlePeak is the peak power of the link's chain 0 alone at its
// operating point: the single-antenna denominator of every gain.
func (k *gainKit) singlePeak(lk *link.Link) (float64, error) {
	k.single[0] = radio.Carrier{Freq: lk.Beamformer.CenterFreq, Phase: 0, Amplitude: link.ChainAmplitude()}
	return baseline.PeakReceivedPower(k.single[:], lk.Downlink()[:1], link.ScanDuration, 1)
}

// measure realizes the placement and its link, then measures the four
// schemes against identical channels. Draw order: placement draws, "cib"
// split + PLL locks, "blind" split + phases.
func (k *gainKit) measure(sc scenario.Scenario, n int, tr *session.Trace, r *rng.Rand) (GainSample, error) {
	var out GainSample
	lk, err := k.realize(sc, n, tr, r)
	if err != nil {
		return out, err
	}
	out.CIB = lk.PeakPower()
	if out.Single, err = k.singlePeak(lk); err != nil {
		return out, err
	}
	chans := lk.Downlink()
	freq := lk.Beamformer.CenterFreq
	amp := link.ChainAmplitude()

	// Blind same-frequency array.
	r.SplitInto(&k.child, "blind")
	if k.carr, err = baseline.BlindArrayInto(k.carr[:0], n, freq, amp, &k.child); err != nil {
		return out, err
	}
	if out.Blind, err = baseline.PeakReceivedPower(k.carr, chans, link.ScanDuration, 1); err != nil {
		return out, err
	}

	// Oracle MRT.
	if k.carr, err = baseline.OracleMRTInto(k.carr[:0], freq, amp, chans); err != nil {
		return out, err
	}
	out.MRT, err = baseline.PeakReceivedPower(k.carr, chans, link.ScanDuration, 1)
	return out, err
}

// commKit is one worker's reusable state for communication trials
// (Fig13): the realized placement plus the link layer's trial kit.
type commKit struct {
	placement scenario.Placement
	lk        link.TrialKit
}

func newCommKit() any { return new(commKit) }

// trial realizes the placement and link chain into retained storage,
// then runs the power-up + inventory exchange. Draw order: placement
// draws, the link's "cib" split + PLL locks, "tag" split, then the
// exchange's own draws from r.
func (k *commKit) trial(sc scenario.Scenario, n int, model tag.Model, opts CommOptions, r *rng.Rand) (CommTrial, error) {
	if err := scenario.RealizeInto(sc, &k.placement, n, r); err != nil {
		return CommTrial{}, err
	}
	lk, err := k.lk.ForTrial(&k.placement, n, opts.Trace, r)
	if err != nil {
		return CommTrial{}, err
	}
	var tagRand rng.Rand
	r.SplitInto(&tagRand, "tag")
	return commExchangeAt(lk, &tagRand, model, opts, r)
}
