package ivnsim

import (
	"fmt"

	"ivn/internal/baseline"
	"ivn/internal/gen2"
	"ivn/internal/link"
	"ivn/internal/radio"
	"ivn/internal/reader"
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
// (Fig13, invivo, fig15): the realized placement plus the link layer's
// trial kit, and the last trial's exchange.
type commKit struct {
	placement scenario.Placement
	lk        link.TrialKit

	// The last trial's exchange, valid until the next trial: the link it
	// ran over, its tag, the tag's reply to the Query, and the uplink
	// decode (zero unless a waveform decode succeeded). fig15 renders
	// the session it found from them.
	link  *link.Link
	tag   *tag.Tag
	reply gen2.Reply
	dec   session.Decode
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
	res, rn16, err := k.query(lk, &tagRand, model, opts.Trace)
	if err != nil || !rn16 {
		return res, err
	}

	// Uplink through the out-of-band reader; subject motion dephases the
	// averaged periods.
	if !opts.Waveform {
		res.Decoded = lk.DecodableRN16(model)
		return res, nil
	}
	dec, ok, err := lk.Decode(k.tag, k.reply, "uplink", r)
	if err != nil {
		return res, err
	}
	if ok {
		k.dec = dec
		res.Decoded = true
		res.Correlation = dec.Correlation
	}
	return res, nil
}

// query is the exchange every comm trial opens with: a tag seeded from
// tagRand (it draws from its own copy) powers up from lk's peak and,
// when its rail comes up, answers a Query. The link, the tag and its
// reply are kept in k; rn16 reports whether the reply is an RN16 to
// decode.
func (k *commKit) query(lk *link.Link, tagRand *rng.Rand, model tag.Model, tr *session.Trace) (res CommTrial, rn16 bool, err error) {
	res.PeakPower = lk.PeakPower()
	tg, err := tag.New(model, defaultEPC, tagRand)
	if err != nil {
		return res, false, err
	}
	k.link, k.tag, k.reply, k.dec = lk, tg, gen2.Reply{}, session.Decode{}
	x := session.Exchange{Link: lk, Trace: tr}
	if res.Powered = x.PowerUp(tg, res.PeakPower); !res.Powered {
		return res, false, nil
	}
	// Inventory: the synchronized Query arrives intact by construction
	// (the flatness constraint is enforced by the beamformer's
	// CommandAirTime); drive the state machine to an RN16 reply.
	if k.reply, err = x.Query(tg, &gen2.Query{Q: 0, Session: gen2.S0}); err != nil {
		return res, false, fmt.Errorf("ivnsim: downlink: %w", err)
	}
	return res, k.reply.Kind == gen2.ReplyRN16, nil
}

// pairedKit is one worker's state for the paired uplink ablations
// (ablation-averaging, ablation-phasenoise): a comm kit, and per table
// row the reader and decode label, the only part of the chain the rows
// vary.
type pairedKit struct {
	commKit
	readers []*reader.Reader
	labels  []string
}

// decodes realizes one default 8-chain session at a fresh placement of
// sc and decodes its RN16 once per row. Draw order: placement draws, the
// "tag" split, the link's "cib" split + PLL locks (the tag splits before
// the link here, unlike trial; the paired goldens pin it). Each row's
// decode then splits its label from its own copy of the stream as those
// shared draws left it.
func (k *pairedKit) decodes(sc scenario.Scenario, model tag.Model, r *rng.Rand) ([]bool, error) {
	if err := scenario.RealizeInto(sc, &k.placement, 8, r); err != nil {
		return nil, err
	}
	var tagRand rng.Rand
	r.SplitInto(&tagRand, "tag")
	lk, err := k.lk.ForTrial(&k.placement, 8, nil, r)
	if err != nil {
		return nil, err
	}
	decoded := make([]bool, len(k.readers))
	if _, rn16, err := k.query(lk, &tagRand, model, nil); err != nil || !rn16 {
		return decoded, err
	}
	for j, rd := range k.readers {
		// The link's peak and jam tone depend only on the beamformer and
		// the placement, so the row's reader stands in for the kit's.
		lk.Reader = rd
		rr := *r
		if _, decoded[j], err = lk.Decode(k.tag, k.reply, k.labels[j], &rr); err != nil {
			return nil, err
		}
	}
	return decoded, nil
}
