package gen2

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"ivn/internal/dsp"
	"ivn/internal/rng"
)

func TestFM0PreambleMatchesPaper(t *testing.T) {
	// The paper correlates against the known 12-bit preamble
	// "110100100011" (FM0 encoding), §6.2.
	var sb strings.Builder
	for _, b := range FM0PreambleHalfBits {
		sb.WriteByte('0' + b)
	}
	if sb.String() != FM0PreambleString {
		t.Fatalf("preamble half-bits %q != paper's %q", sb.String(), FM0PreambleString)
	}
}

func TestFM0PreambleEncodesSymbols(t *testing.T) {
	// The half-bit pattern must be the FM0 rendering of 1,0,1,0,v,1: the
	// violation symbol (index 4) does NOT invert at its boundary; all
	// other symbols do.
	hb := FM0PreambleHalfBits
	for sym := 0; sym < 6; sym++ {
		h1, h2 := hb[2*sym], hb[2*sym+1]
		isOne := h1 == h2
		switch sym {
		case 0, 2, 5: // data-1 symbols
			if !isOne {
				t.Fatalf("preamble symbol %d should be 1", sym)
			}
		case 1, 3: // data-0 symbols
			if isOne {
				t.Fatalf("preamble symbol %d should be 0", sym)
			}
		case 4: // violation: looks like 1 but breaks boundary inversion
			if !isOne {
				t.Fatal("violation symbol halves should agree")
			}
			if hb[8] == hb[7] != true {
				// boundary NOT inverted: hb[8] equals hb[7]
				t.Fatal("violation symbol must not invert at its boundary")
			}
		}
		if sym > 0 && sym != 4 {
			if hb[2*sym] == hb[2*sym-1] {
				t.Fatalf("missing boundary inversion before symbol %d", sym)
			}
		}
	}
}

func TestFM0EncodeDecodeRoundTrip(t *testing.T) {
	payload, _ := ParseBits("1011001110001111")
	enc := FM0Encoder{SamplesPerHalfBit: 8}
	wave, err := enc.AppendEncode(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	dec := FM0Decoder{SamplesPerHalfBit: 8}
	res, err := dec.DecodeFrame(wave, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Payload.Equal(payload) {
		t.Fatalf("decoded %s, want %s", res.Payload, payload)
	}
	if res.Correlation < 0.999 {
		t.Fatalf("clean-channel correlation = %v", res.Correlation)
	}
	if res.Offset != 0 {
		t.Fatalf("preamble offset = %d, want 0", res.Offset)
	}
}

func TestFM0DecodeWithLeadingNoiseAndOffset(t *testing.T) {
	r := rng.New(3)
	payload, _ := ParseBits("1100101001010011")
	enc := FM0Encoder{SamplesPerHalfBit: 10}
	wave, err := enc.AppendEncode(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	// Prepend low-level noise and append tail noise, add in-band noise.
	pre := make([]float64, 137)
	for i := range pre {
		pre[i] = 0.1 * r.NormFloat64()
	}
	full := append(pre, wave...)
	for i := range full {
		full[i] += 0.15 * r.NormFloat64()
	}
	dec := FM0Decoder{SamplesPerHalfBit: 10, CorrelationThreshold: 0.8}
	res, err := dec.DecodeFrame(full, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if res.Offset != len(pre) {
		t.Fatalf("offset = %d, want %d", res.Offset, len(pre))
	}
	if !res.Payload.Equal(payload) {
		t.Fatalf("decoded %s, want %s", res.Payload, payload)
	}
}

func TestFM0RejectsPureNoise(t *testing.T) {
	r := rng.New(4)
	noise := make([]float64, 4000)
	for i := range noise {
		noise[i] = r.NormFloat64()
	}
	dec := FM0Decoder{SamplesPerHalfBit: 10, CorrelationThreshold: 0.8}
	if _, err := dec.DecodeFrame(noise, 16); err == nil {
		t.Fatal("decoder accepted pure noise")
	}
}

// TestBelowThresholdErrorText pins the text of a capture rejected at the
// sync search, for both decoders, to the message built from the
// correlation the search found.
func TestBelowThresholdErrorText(t *testing.T) {
	r := rng.New(4)
	noise := make([]float64, 4000)
	for i := range noise {
		noise[i] = r.NormFloat64()
	}
	fm0 := FM0Decoder{SamplesPerHalfBit: 10, CorrelationThreshold: 0.8}
	tmpl, inv := preambleTemplates(fm0.SamplesPerHalfBit)
	best, _ := dsp.MaxCorrelation(noise, tmpl)
	bestInv, _ := dsp.MaxCorrelation(noise, inv)
	want := fmt.Sprintf("gen2: preamble correlation %.3f below threshold %.3f", max(best, bestInv), 0.8)
	if _, err := fm0.DecodeFrame(noise, 16); err == nil || err.Error() != want {
		t.Errorf("FM0 error %v, want %q", err, want)
	}

	miller := MillerDecoder{M: 4, SamplesPerCycle: 4}
	prefix, err := MillerPrefixTemplate(miller.M, miller.SamplesPerCycle)
	if err != nil {
		t.Fatal(err)
	}
	best, _ = dsp.MaxCorrelation(noise, prefix)
	want = fmt.Sprintf("gen2: Miller prefix correlation %.3f below threshold %.3f", best, 0.95)
	if _, err := miller.DecodeFrame(noise, 16, 0.95); err == nil || err.Error() != want {
		t.Errorf("Miller error %v, want %q", err, want)
	}
}

func TestFM0BoundaryInversionProperty(t *testing.T) {
	// FM0 invariant: the level always inverts at a symbol boundary
	// (except inside the preamble violation). Verify across the payload.
	payload, _ := ParseBits("0110100111000101")
	enc := FM0Encoder{SamplesPerHalfBit: 1}
	wave, err := enc.AppendEncode(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	// Payload starts right after the 12 preamble half-bits.
	for sym := 0; sym <= len(payload); sym++ { // includes dummy bit
		boundary := 12 + 2*sym
		if wave[boundary] == wave[boundary-1] {
			t.Fatalf("no inversion at payload symbol %d boundary", sym)
		}
	}
}

func TestFM0TRextPilot(t *testing.T) {
	payload, _ := ParseBits("1010")
	plain := FM0Encoder{SamplesPerHalfBit: 4}
	ext := FM0Encoder{SamplesPerHalfBit: 4, TRext: true}
	w1, err := plain.AppendEncode(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := ext.AppendEncode(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(w2)-len(w1) != 12*2*4 {
		t.Fatalf("TRext pilot adds %d samples, want %d", len(w2)-len(w1), 12*2*4)
	}
	// Decoding still works: the correlator finds the preamble after the
	// pilot.
	dec := FM0Decoder{SamplesPerHalfBit: 4}
	res, err := dec.DecodeFrame(w2, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Payload.Equal(payload) {
		t.Fatalf("TRext decode %s, want %s", res.Payload, payload)
	}
}

func TestFM0EncoderValidation(t *testing.T) {
	if _, err := (FM0Encoder{}).AppendEncode(nil, Bits{1}); err == nil {
		t.Fatal("zero samples-per-half-bit accepted")
	}
	if _, err := (FM0Encoder{SamplesPerHalfBit: 4}).AppendEncode(nil, Bits{3}); err == nil {
		t.Fatal("invalid payload bit accepted")
	}
}

func TestFM0DecoderValidation(t *testing.T) {
	if _, err := (FM0Decoder{}).DecodePayload(nil, 1); err == nil {
		t.Fatal("zero samples-per-half-bit accepted")
	}
	d := FM0Decoder{SamplesPerHalfBit: 4}
	if _, err := d.DecodePayload(make([]float64, 7), 1); err == nil {
		t.Fatal("short payload accepted")
	}
	if _, err := d.DecodeFrame(make([]float64, 3), 1); err == nil {
		t.Fatal("capture shorter than preamble accepted")
	}
}

func TestQuickFM0RoundTrip(t *testing.T) {
	f := func(data []byte, spRaw uint8) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 16 {
			data = data[:16]
		}
		sp := int(spRaw%6) + 2
		payload := BitsFromBytes(data)
		enc := FM0Encoder{SamplesPerHalfBit: sp}
		wave, err := enc.AppendEncode(nil, payload)
		if err != nil {
			return false
		}
		dec := FM0Decoder{SamplesPerHalfBit: sp}
		res, err := dec.DecodeFrame(wave, len(payload))
		if err != nil {
			return false
		}
		return res.Payload.Equal(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestMillerRoundTrip(t *testing.T) {
	payload, _ := ParseBits("1011001110001111")
	for _, m := range []int{2, 4, 8} {
		enc := MillerEncoder{M: m, SamplesPerCycle: 4}
		wave, err := enc.AppendEncode(nil, payload)
		if err != nil {
			t.Fatalf("M=%d: %v", m, err)
		}
		dec := MillerDecoder{M: m, SamplesPerCycle: 4}
		off := MillerPayloadOffset(m, 4)
		got, err := dec.DecodePayload(wave[off:], len(payload))
		if err != nil {
			t.Fatalf("M=%d: %v", m, err)
		}
		if !got.Equal(payload) {
			t.Fatalf("M=%d: decoded %s, want %s", m, got, payload)
		}
	}
}

func TestMillerValidation(t *testing.T) {
	if _, err := (MillerEncoder{M: 3, SamplesPerCycle: 4}).AppendEncode(nil, Bits{1}); err == nil {
		t.Fatal("M=3 accepted")
	}
	if _, err := (MillerEncoder{M: 2, SamplesPerCycle: 1}).AppendEncode(nil, Bits{1}); err == nil {
		t.Fatal("1 sample/cycle accepted")
	}
	if _, err := (MillerDecoder{M: 5, SamplesPerCycle: 4}).DecodePayload(nil, 1); err == nil {
		t.Fatal("decoder M=5 accepted")
	}
	if _, err := (MillerDecoder{M: 2, SamplesPerCycle: 4}).DecodePayload(make([]float64, 3), 4); err == nil {
		t.Fatal("short Miller payload accepted")
	}
}

func TestMillerSubcarrierPresent(t *testing.T) {
	// The Miller waveform must contain M cycles per symbol: its dominant
	// spectral content sits at the subcarrier rate, not at the bit rate.
	enc := MillerEncoder{M: 4, SamplesPerCycle: 8}
	payload, _ := ParseBits("00000000")
	wave, err := enc.AppendEncode(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	// Count zero crossings: with a subcarrier there are ≈2 per cycle.
	crossings := 0
	for i := 1; i < len(wave); i++ {
		if wave[i]*wave[i-1] < 0 {
			crossings++
		}
	}
	symbols := len(wave) / (4 * 8)
	wantMin := symbols * 4 // at least M crossings per symbol
	if crossings < wantMin {
		t.Fatalf("only %d zero crossings over %d symbols; subcarrier missing", crossings, symbols)
	}
}

func TestFM0NoiseToleranceSweep(t *testing.T) {
	// The decoder should survive moderate AWGN; this guards the margin the
	// reader relies on after coherent averaging.
	r := rng.New(9)
	payload, _ := ParseBits("110010100101")
	enc := FM0Encoder{SamplesPerHalfBit: 16}
	clean, err := enc.AppendEncode(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	ok := 0
	const trials = 30
	for i := 0; i < trials; i++ {
		noisy := make([]float64, len(clean))
		for j := range clean {
			noisy[j] = clean[j] + 0.5*r.NormFloat64()
		}
		dec := FM0Decoder{SamplesPerHalfBit: 16, CorrelationThreshold: 0.7}
		if res, err := dec.DecodeFrame(noisy, len(payload)); err == nil && res.Payload.Equal(payload) {
			ok++
		}
	}
	if ok < trials*8/10 {
		t.Fatalf("only %d/%d frames decoded at SNR ≈ 9 dB", ok, trials)
	}
}

func TestFM0LevelsAreBinary(t *testing.T) {
	payload, _ := ParseBits("0101")
	wave, err := FM0Encoder{SamplesPerHalfBit: 3}.AppendEncode(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range wave {
		if math.Abs(v) != 1 {
			t.Fatalf("sample %d = %v, want ±1", i, v)
		}
	}
}

func TestFM0DecodePolarityInvariant(t *testing.T) {
	// A backscatter link's sign is set by the unknown channel phase; the
	// decoder must accept either polarity.
	payload, _ := ParseBits("1100101001010011")
	enc := FM0Encoder{SamplesPerHalfBit: 8}
	wave, err := enc.AppendEncode(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	flipped := make([]float64, len(wave))
	for i, v := range wave {
		flipped[i] = -v
	}
	dec := FM0Decoder{SamplesPerHalfBit: 8}
	res, err := dec.DecodeFrame(flipped, len(payload))
	if err != nil {
		t.Fatalf("inverted-polarity decode failed: %v", err)
	}
	if !res.Payload.Equal(payload) {
		t.Fatalf("inverted decode %s, want %s", res.Payload, payload)
	}
	if res.Correlation < 0.999 {
		t.Fatalf("inverted correlation %v", res.Correlation)
	}
}

// fm0EncodeRef is the reference FM0 encoder: the fresh-slice loop
// AppendEncode replaced, kept to pin the append form sample for sample.
func fm0EncodeRef(e FM0Encoder, payload Bits) []float64 {
	sp := e.SamplesPerHalfBit
	var out []float64
	writeHalf := func(level float64) {
		for i := 0; i < sp; i++ {
			out = append(out, level)
		}
	}
	level := 1.0
	if e.TRext {
		for s := 0; s < pilotSymbols; s++ {
			level = -level
			writeHalf(level)
			level = -level
			writeHalf(level)
		}
	}
	for _, hb := range FM0PreambleHalfBits {
		if hb == 1 {
			writeHalf(1)
			level = 1
		} else {
			writeHalf(-1)
			level = -1
		}
	}
	emit := func(bit byte) {
		level = -level
		writeHalf(level)
		if bit == 0 {
			level = -level
		}
		writeHalf(level)
	}
	for _, b := range payload {
		emit(b)
	}
	emit(1)
	return out
}

// millerEncodeRef is the reference Miller encoder: the symbol-list loop
// AppendEncode replaced.
func millerEncodeRef(e MillerEncoder, payload Bits) []float64 {
	symbols := append(Bits{0, 0, 0, 0}, millerPreambleSymbols...)
	symbols = append(symbols, payload...)
	symbols = append(symbols, 1)
	spc := e.SamplesPerCycle
	perSym := e.M * spc
	var out []float64
	phase := 1.0
	prev := byte(1)
	for _, sym := range symbols {
		if sym == 0 && prev == 0 {
			phase = -phase
		}
		half := perSym / 2
		for i := 0; i < perSym; i++ {
			if sym == 1 && i == half {
				phase = -phase
			}
			sub := 1.0
			if i%spc >= spc/2 {
				sub = -1
			}
			out = append(out, phase*sub)
		}
		prev = sym
	}
	return out
}

// TestAppendEncodeKeepsPrefixAndMatchesReference appends each encoding
// onto a non-empty dst: the prefix must survive and the appended samples
// must equal the reference loop's, for FM0 with and without the pilot and
// for every Miller M.
func TestAppendEncodeKeepsPrefixAndMatchesReference(t *testing.T) {
	r := rng.New(12)
	prefix := []float64{0.25, -3, 7}
	for trial := 0; trial < 20; trial++ {
		payload := make(Bits, trial)
		for i := range payload {
			payload[i] = byte(r.Intn(2))
		}
		type encoding struct {
			name   string
			encode func([]float64) ([]float64, error)
			want   []float64
		}
		var encs []encoding
		for _, sp := range []int{1, 3, 8} {
			for _, trext := range []bool{false, true} {
				e := FM0Encoder{SamplesPerHalfBit: sp, TRext: trext}
				encs = append(encs, encoding{fmt.Sprintf("fm0 sp=%d trext=%v", sp, trext),
					func(dst []float64) ([]float64, error) { return e.AppendEncode(dst, payload) },
					fm0EncodeRef(e, payload)})
			}
		}
		for _, m := range []int{2, 4, 8} {
			for _, spc := range []int{2, 5, 16} {
				e := MillerEncoder{M: m, SamplesPerCycle: spc}
				encs = append(encs, encoding{fmt.Sprintf("miller M=%d spc=%d", m, spc),
					func(dst []float64) ([]float64, error) { return e.AppendEncode(dst, payload) },
					millerEncodeRef(e, payload)})
			}
		}
		for _, enc := range encs {
			dst := append(make([]float64, 0, len(prefix)+1), prefix...)
			got, err := enc.encode(dst)
			if err != nil {
				t.Fatalf("%s, %d bits: %v", enc.name, trial, err)
			}
			if !slices.Equal(got[:len(prefix)], prefix) {
				t.Fatalf("%s, %d bits: prefix became %v", enc.name, trial, got[:len(prefix)])
			}
			if !slices.Equal(got[len(prefix):], enc.want) {
				t.Fatalf("%s, %d bits: appended samples differ from the reference loop", enc.name, trial)
			}
			fresh, err := enc.encode(nil)
			if err != nil || !slices.Equal(fresh, enc.want) {
				t.Fatalf("%s, %d bits: nil dst gives %d samples (err %v), reference %d", enc.name, trial, len(fresh), err, len(enc.want))
			}
		}
	}
}
