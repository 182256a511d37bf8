package ivnsim

import (
	"math"

	"ivn/internal/baseline"
	"ivn/internal/core"
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
// realized placement (channels + ray buffers), the CIB beamformer
// (relocked, not rebuilt, while the antenna count and carrier are
// stable), and carrier/coefficient buffers.
type gainKit struct {
	placement scenario.Placement
	bf        *core.Beamformer
	chans     []complex128
	carr      []radio.Carrier
	single    [1]radio.Carrier
	child     rng.Rand
}

func newGainKit() any { return new(gainKit) }

// measure realizes the placement into retained storage, then measures
// the four schemes against identical channels. Draw order: placement
// draws, "cib" split + PLL locks, "blind" split + phases.
func (k *gainKit) measure(sc scenario.Scenario, n int, tr *session.Trace, r *rng.Rand) (GainSample, error) {
	var out GainSample
	if err := scenario.RealizeInto(sc, &k.placement, n, r); err != nil {
		return out, err
	}
	p := &k.placement
	g := p.Geometry()
	k.chans = link.DownlinkCoeffsInto(k.chans[:0], p, g.CIBFreq)
	amp := link.ChainAmplitude()

	// CIB: offset carriers with fresh random PLL phases. core.New's only
	// randomness is the array lock, so relocking the retained beamformer
	// reproduces a rebuild's phase stream exactly.
	r.SplitInto(&k.child, "cib")
	//ivn:allow floatcmp exact cache-key identity check: any difference must force a rebuild
	if k.bf == nil || k.bf.N() != n || k.bf.CenterFreq != g.CIBFreq {
		cfg := core.DefaultConfig()
		cfg.Antennas = n
		cfg.CenterFreq = g.CIBFreq
		bf, err := core.New(cfg, &k.child)
		if err != nil {
			return out, err
		}
		k.bf = bf
	} else {
		k.bf.Relock(&k.child)
	}
	k.carr = k.bf.AppendCarriers(k.carr[:0])
	var err error
	out.CIB, err = baseline.PeakReceivedPowerRefined(k.carr, k.chans, link.ScanDuration, link.ScanCoarse, link.ScanSamples)
	if err != nil {
		return out, err
	}
	if tr != nil {
		// Gain trials realize the CIB downlink without a full Link (no
		// reader leg); report it with the same event the link layer emits.
		tr.Emit(session.Event{Kind: session.EvLinkRealized, Value: 10*math.Log10(out.CIB) + 30})
	}

	// Single antenna: chain 0 alone.
	k.single[0] = radio.Carrier{Freq: g.CIBFreq, Phase: 0, Amplitude: amp}
	out.Single, err = baseline.PeakReceivedPower(k.single[:], k.chans[:1], link.ScanDuration, 1)
	if err != nil {
		return out, err
	}

	// Blind same-frequency array.
	r.SplitInto(&k.child, "blind")
	blind, err := baseline.BlindArrayInto(k.carr[:0], n, g.CIBFreq, amp, &k.child)
	if err != nil {
		return out, err
	}
	out.Blind, err = baseline.PeakReceivedPower(blind, k.chans, link.ScanDuration, 1)
	if err != nil {
		return out, err
	}

	// Oracle MRT.
	mrt, err := baseline.OracleMRTInto(k.carr[:0], g.CIBFreq, amp, k.chans)
	if err != nil {
		return out, err
	}
	out.MRT, err = baseline.PeakReceivedPower(mrt, k.chans, link.ScanDuration, 1)
	if err != nil {
		return out, err
	}
	return out, nil
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
