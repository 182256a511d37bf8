// Package link owns physical-link realization for one placement: the
// CIB downlink (offset carriers × channel coefficients → peak delivered
// power via the phasor kernel), the out-of-band reader round-trip
// (down/up coefficients with the tag antenna gain applied twice), and
// the CIB→reader leakage that self-jams the uplink. A Link implements
// session.Link, so the Gen2 state machine in ivn/internal/session drives
// real physics through it; tests script fakes against the same
// interface.
//
// RealizeInto is the one realizer: it binds a beamformer, a reader and a
// placement into a Link, scanning the CIB peak and setting the jam tone
// to CIBLeakPerWatt · n · ChainAmplitude()², the leak of n chains at
// their 1 W operating point. TrialKit.ForTrial builds or relocks the
// per-trial chain from the placement's geometry and realizes through it;
// the package-level ForTrial is a kit used once.
package link

import (
	"math"

	"ivn/internal/baseline"
	"ivn/internal/core"
	"ivn/internal/gen2"
	"ivn/internal/radio"
	"ivn/internal/reader"
	"ivn/internal/rng"
	"ivn/internal/scenario"
	"ivn/internal/session"
	"ivn/internal/tag"
)

// Envelope scan resolution: one 1 s CIB period sampled on the half-open
// grid t ∈ [0, 1). The coarse-to-fine peak scan locates beat maxima on
// the coarse grid and refines to full resolution only around the top
// cells; both grids over-resolve the ≤200 Hz beat features of the
// paper's plan, so the refined result equals the full-resolution scan.
const (
	// ScanSamples resolves the 1 s CIB envelope period; beat features at
	// ≤200 Hz offsets span milliseconds, so 8192 points over-resolve
	// them comfortably.
	ScanSamples = 8192
	// ScanCoarse is the coarse stage of the coarse-to-fine peak scan:
	// 2048 points over the 1 s period is still ≥10× the beat bandwidth
	// of a flatness-constrained plan, so the fine-grid argmax always
	// falls inside the refined neighborhoods and the result equals the
	// full ScanSamples scan.
	ScanCoarse = 2048
	// ScanDuration is one CIB period (the paper captures 2 s, i.e. two
	// periods of the same deterministic envelope).
	ScanDuration = 1.0 //ivn:unit s
)

// DownlinkCoeffs evaluates each downlink channel at freq.
//
//ivn:unit freq Hz
func DownlinkCoeffs(p *scenario.Placement, freq float64) []complex128 {
	return DownlinkCoeffsInto(make([]complex128, 0, len(p.Downlink)), p, freq)
}

// DownlinkCoeffsInto appends each downlink channel's coefficient at freq
// to dst and returns it, for per-trial callers that retain one buffer.
//
//ivn:unit freq Hz
//ivn:hotpath
func DownlinkCoeffsInto(dst []complex128, p *scenario.Placement, freq float64) []complex128 {
	for _, c := range p.Downlink {
		//ivn:allow hotpath per-trial callers pass dst[:0] with retained capacity; append grows only on the first trial
		dst = append(dst, c.Coefficient(freq))
	}
	return dst
}

// ChainAmplitude is each transmit chain's emitted amplitude: the default
// PA driven to its 30 dBm (1 W) operating point.
//
//ivn:unit return sqrtW
func ChainAmplitude() float64 {
	pa := radio.DefaultPA()
	return pa.Amplify(pa.OperatingDrive())
}

// Link is one placement's realized physical layer: beamformer downlink,
// out-of-band reader uplink, and the jam tone between them. It
// implements session.Link. A Link is single-exchange state: realize one
// per placement.
type Link struct {
	// Beamformer is the CIB downlink chain.
	Beamformer *core.Beamformer
	// Reader is the out-of-band uplink chain.
	Reader *reader.Reader
	// Placement is the realized trial geometry.
	Placement *scenario.Placement
	// Trace observes physical-layer events; nil is free.
	Trace *session.Trace

	peak  float64 //ivn:unit W
	jam   [1]radio.ToneAt
	chans []complex128
	carr  []radio.Carrier
}

// RealizeInto binds a beamformer, a reader and a placement into l: it
// scans one CIB envelope period of bf's carriers against the placement's
// downlink for the peak, and sets the CIB→reader jam tone at bf's center
// to p.CIBLeakPerWatt · n · ChainAmplitude()² for bf's n chains. The
// coefficient and carrier buffers l keeps between calls are reused, so
// one Link serves sequential exchanges without allocating; every other
// field is overwritten.
func RealizeInto(l *Link, bf *core.Beamformer, rd *reader.Reader, p *scenario.Placement, tr *session.Trace) error {
	l.chans = DownlinkCoeffsInto(l.chans[:0], p, bf.CenterFreq)
	l.carr = bf.AppendCarriers(l.carr[:0])
	peak, err := baseline.PeakReceivedPowerRefined(l.carr, l.chans, ScanDuration, ScanCoarse, ScanSamples)
	if err != nil {
		return err
	}
	l.Beamformer, l.Reader, l.Placement, l.Trace, l.peak = bf, rd, p, tr, peak
	amp := ChainAmplitude()
	l.jam[0] = radio.ToneAt{Freq: bf.CenterFreq, Power: p.CIBLeakPerWatt * float64(bf.N()) * amp * amp}
	if tr != nil {
		tr.Emit(session.Event{Kind: session.EvLinkRealized, Value: l.PeakPowerDBm()})
	}
	return nil
}

// ForTrial builds a fresh per-trial chain at the placement's geometry: a
// TrialKit used once (see TrialKit.ForTrial).
func ForTrial(p *scenario.Placement, n int, tr *session.Trace, r *rng.Rand) (*Link, error) {
	return new(TrialKit).ForTrial(p, n, tr, r)
}

// TrialKit is the per-trial link chain of the ivnsim measurement path,
// amortized across many trials: the beamformer is relocked instead of
// rebuilt when the antenna count and carrier are unchanged (core.New's
// only randomness is the PLL lock, so Relock reproduces its phase stream
// exactly), the reader and its receiver are reset in place, and the
// Link's buffers are retained. A reused kit draws exactly the variate
// sequence of a fresh one and yields an equivalent Link
// (TestTrialKitMatchesForTrial); the returned Link aliases kit storage,
// so it is valid until the next ForTrial call and a kit must not be
// shared between concurrent trials.
type TrialKit struct {
	bf    *core.Beamformer
	rd    *reader.Reader
	link  Link
	child rng.Rand
}

// ForTrial realizes the chain at the placement's geometry through
// RealizeInto: a default n-antenna beamformer locked from
// r.Split("cib") at the geometry's CIB carrier, and a default reader at
// the geometry's out-of-band carrier carrying the placement's
// motion-induced phase drift.
func (k *TrialKit) ForTrial(p *scenario.Placement, n int, tr *session.Trace, r *rng.Rand) (*Link, error) {
	g := p.Geometry()
	r.SplitInto(&k.child, "cib")
	//ivn:allow floatcmp exact cache-key identity check: any difference must force a rebuild
	if k.bf != nil && k.bf.N() == n && k.bf.CenterFreq == g.CIBFreq {
		k.bf.Relock(&k.child)
	} else {
		cfg := core.DefaultConfig()
		cfg.Antennas = n
		cfg.CenterFreq = g.CIBFreq
		bf, err := core.New(cfg, &k.child)
		if err != nil {
			return nil, err
		}
		k.bf = bf
	}
	if k.rd == nil {
		k.rd = reader.New()
	}
	k.rd.TxFreq = g.ReaderFreq
	//ivn:allow floatcmp exact cache-key identity check: any difference must force a receiver rebuild
	if k.rd.RX == nil || k.rd.RX.Center != g.ReaderFreq {
		k.rd.RX = radio.NewReceiver(g.ReaderFreq)
	}
	k.rd.PhaseDriftPerPeriod = p.UplinkPhaseDriftPerPeriod
	if err := RealizeInto(&k.link, k.bf, k.rd, p, tr); err != nil {
		return nil, err
	}
	return &k.link, nil
}

// PeakPower is the CIB envelope peak at the sensor, isotropic watts.
//
//ivn:unit return W
func (l *Link) PeakPower() float64 { return l.peak }

// PeakPowerDBm is the envelope peak in dBm.
//
//ivn:unit return dBm
func (l *Link) PeakPowerDBm() float64 { return 10*math.Log10(l.peak) + 30 }

// Jam returns the CIB→reader leakage tone set.
func (l *Link) Jam() []radio.ToneAt { return l.jam[:] }

// Downlink returns the downlink channel coefficients at the CIB carrier,
// one per chain, that the peak was scanned against. It aliases the
// Link's buffer and is valid until the next RealizeInto into this Link.
func (l *Link) Downlink() []complex128 { return l.chans }

// RoundTrip is the reader→tag→reader amplitude gain for a tag model at
// this placement; the tag's antenna gain applies twice (receiving the
// reader carrier and re-radiating the modulated reflection).
func (l *Link) RoundTrip(m tag.Model) complex128 {
	tagG := m.AntennaAmplitudeGain()
	return reader.RoundTripGain(l.Reader.TxAmplitude,
		l.Placement.ReaderDown.Coefficient(l.Reader.TxFreq),
		l.Placement.ReaderUp.Coefficient(l.Reader.TxFreq)) * complex(tagG*tagG, 0)
}

// DecodableRN16 is the fast link-budget predicate: whether a model's
// RN16 backscatter closes the uplink budget at this placement without
// synthesizing waveforms.
func (l *Link) DecodableRN16(m tag.Model) bool {
	modAmp := reader.ModulationAmplitude(m.BackscatterGain, m.BackscatterDepth)
	return l.Reader.DecodableRN16(l.RoundTrip(m), modAmp, l.jam[:])
}

// Transmit implements session.Link: the command goes out on every CIB
// chain (flatness-checked), and the trace clock advances past its
// on-air duration. Only the duration matters here — the tag decodes
// analytically from the link budget — so Transmit runs the beamformer's
// air-time path (identical validation, no envelope synthesis), which is
// what removes the multi-megabyte envelope floor from every exchange.
func (l *Link) Transmit(cmd gen2.Command, preamble bool) error {
	dur, err := l.Beamformer.CommandAirTime(cmd, preamble)
	if err != nil {
		return err
	}
	if l.Trace != nil {
		l.Trace.Advance(dur)
		l.Trace.Emit(session.Event{Kind: session.EvCommandSent, Cmd: cmd.Type().String()})
	}
	return nil
}

// TransmitSelect implements session.Link for the §3.7 Select+Query
// compound frame, through the same envelope-free air-time path as
// Transmit.
func (l *Link) TransmitSelect(sel *gen2.Select, q *gen2.Query) error {
	selDur, qDur, err := l.Beamformer.SelectQueryAirTime(sel, q)
	if err != nil {
		return err
	}
	if l.Trace != nil {
		l.Trace.Advance(selDur + qDur)
		l.Trace.Emit(session.Event{Kind: session.EvCommandSent, Cmd: "Select+Query"})
	}
	return nil
}

// averagingPeriods resolves the reader's coherent-averaging depth.
func (l *Link) averagingPeriods() int {
	if l.Reader.AveragingPeriods == 0 {
		return reader.DefaultAveragingPeriods
	}
	return l.Reader.AveragingPeriods
}

// Decode implements session.Link: synthesize the tag's backscatter,
// push it through the out-of-band reader with the jam tone, and compare
// against the true bits. The decode occupies AveragingPeriods × 1 s of
// sim time (each averaged capture spans one CIB envelope period).
func (l *Link) Decode(tg *tag.Tag, reply gen2.Reply, label string, r *rng.Rand) (session.Decode, bool, error) {
	bs, err := tg.BackscatterWaveform(reply, l.Reader.SamplesPerHalfBit)
	if err != nil {
		return session.Decode{}, false, err
	}
	dr, err := l.Reader.DecodeUplink(bs, l.RoundTrip(tg.Model), l.jam[:], len(reply.Bits), r.Split(label))
	ok := err == nil && dr.Bits.Equal(reply.Bits)
	if l.Trace != nil {
		l.Trace.Advance(float64(l.averagingPeriods()) * ScanDuration)
		e := session.Event{Kind: session.EvReplyDecoded, Label: label, OK: ok}
		if ok {
			e.Value = dr.Correlation
		}
		l.Trace.Emit(e)
	}
	if !ok {
		return session.Decode{}, false, nil
	}
	return session.Decode{Bits: dr.Bits, Correlation: dr.Correlation}, true, nil
}

// DecodeWithRetry is Decode through the reader's bounded capture-retry
// path (PR 3 recovery): up to 1+retries attempts, each a fresh noise
// realization, with fault deciding per-attempt capture corruption.
// exchange identifies this decode for the fault layer. Note the retry
// path derives its noise as r.Split(label).Split("attempt-<i>") — a
// different stream than plain Decode — so callers switch paths only
// when retry/fault behavior is actually requested.
func (l *Link) DecodeWithRetry(tg *tag.Tag, reply gen2.Reply, exchange, retries int, fault reader.DecodeFault, label string, r *rng.Rand) (session.Decode, bool, error) {
	bs, err := tg.BackscatterWaveform(reply, l.Reader.SamplesPerHalfBit)
	if err != nil {
		return session.Decode{}, false, err
	}
	rr, err := l.Reader.DecodeUplinkWithRetry(exchange, retries, fault, bs, l.RoundTrip(tg.Model), l.jam[:], len(reply.Bits), r.Split(label))
	if err != nil {
		return session.Decode{}, false, err
	}
	ok := rr.Succeeded() && rr.Result.Bits.Equal(reply.Bits)
	if l.Trace != nil {
		for i, att := range rr.Attempts {
			l.Trace.Advance(float64(l.averagingPeriods()) * ScanDuration)
			if i > 0 {
				l.Trace.Emit(session.Event{Kind: session.EvRetryTaken, Cmd: "decode", Attempt: i, Outcome: att.String()})
			}
		}
		e := session.Event{Kind: session.EvReplyDecoded, Label: label, OK: ok}
		if ok {
			e.Value = rr.Result.Correlation
		}
		l.Trace.Emit(e)
	}
	if !ok {
		return session.Decode{}, false, nil
	}
	return session.Decode{Bits: rr.Result.Bits, Correlation: rr.Result.Correlation}, true, nil
}
