// Package ivn is the public entry point to the IVN (In-Vivo Networking)
// library: a full reimplementation of "Enabling Deep-Tissue Networking for
// Miniature Medical Devices" (SIGCOMM 2018).
//
// The library powers up and communicates with battery-free backscatter
// sensors through deep tissue using coherently-incoherent beamforming
// (CIB): N transmit chains send the same synchronized Gen2 command on N
// slightly offset carriers, so the superposed envelope at any point in
// space periodically sweeps through near-coherent alignments — delivering
// an ≈N× peak amplitude without any channel knowledge.
//
// A System bundles a CIB beamformer with the out-of-band reader; each
// exchange realizes an ivn/internal/link Link for the drawn placement and
// drives it through the ivn/internal/session state machine. Scenarios
// (water tank, open air, swine torso) come from ivn/internal/scenario;
// tag models from ivn/internal/tag. The typical flow is three lines:
//
//	sys, _ := ivn.New(ivn.Config{Antennas: 8, Seed: 1})
//	session, _ := sys.Inventory(scenario.NewTank(0.5, em.Water, 0.11), tag.MiniatureTag())
//	fmt.Println(session)
//
// Every randomized component derives from Config.Seed, so runs are fully
// reproducible. Set System.Observer to watch any exchange as a typed
// event stream stamped with simulated air time.
package ivn

import (
	"fmt"
	"sort"

	"ivn/internal/baseline"
	"ivn/internal/core"
	"ivn/internal/gen2"
	"ivn/internal/link"
	"ivn/internal/radio"
	"ivn/internal/reader"
	"ivn/internal/rng"
	"ivn/internal/scenario"
	"ivn/internal/session"
	"ivn/internal/stats"
	"ivn/internal/tag"
)

// Config assembles a System.
type Config struct {
	// Antennas is the CIB chain count (1-10 with the default plan);
	// zero means 10, the paper's full prototype.
	Antennas int
	// CenterFreq is the CIB carrier in Hz; zero means 915 MHz.
	CenterFreq float64
	// Offsets overrides the Δf plan; nil means the paper's published set.
	Offsets []float64
	// ReaderFreq is the out-of-band reader carrier; zero means 880 MHz.
	ReaderFreq float64
	// AveragingPeriods is the reader's coherent-averaging depth; zero
	// keeps the default.
	AveragingPeriods int
	// Seed drives all randomness.
	Seed uint64
}

// System is a ready-to-use IVN deployment: CIB beamformer plus
// out-of-band reader. A System is not safe for concurrent use: each
// exchange advances its deterministic random stream. Build one System per
// goroutine (with distinct seeds) for parallel work.
type System struct {
	Beamformer *core.Beamformer
	Reader     *reader.Reader

	// Observer, when non-nil, receives every exchange's typed event
	// stream (commands sent, slots resolved, decodes, EPC outcomes)
	// stamped with simulated air time. Nil — the default — costs
	// nothing: no events are built and no clock is kept.
	Observer session.Observer

	root *rng.Rand
	// lk is scratch storage for the physical link of each exchange and
	// survey trial; reused across sequential calls so the hot path
	// allocates nothing for it (a System is single-goroutine by
	// contract).
	lk link.Link
}

// New builds a System.
func New(cfg Config) (*System, error) {
	if cfg.Antennas == 0 {
		if cfg.Offsets != nil {
			cfg.Antennas = len(cfg.Offsets)
		} else {
			cfg.Antennas = 10
		}
	}
	root := rng.New(cfg.Seed)
	bcfg := core.DefaultConfig()
	bcfg.Antennas = cfg.Antennas
	if cfg.CenterFreq != 0 {
		bcfg.CenterFreq = cfg.CenterFreq
	}
	if cfg.Offsets != nil {
		bcfg.Offsets = cfg.Offsets
	}
	bf, err := core.New(bcfg, root.Split("beamformer"))
	if err != nil {
		return nil, err
	}
	rd := reader.New()
	if cfg.ReaderFreq != 0 {
		rd.TxFreq = cfg.ReaderFreq
		rd.RX = radio.NewReceiver(cfg.ReaderFreq)
	}
	if cfg.AveragingPeriods != 0 {
		rd.AveragingPeriods = cfg.AveragingPeriods
	}
	if err := rd.Validate(); err != nil {
		return nil, err
	}
	return &System{Beamformer: bf, Reader: rd, root: root}, nil
}

// FrequencyPlan returns the active Δf set in Hz.
func (s *System) FrequencyPlan() []float64 {
	return append([]float64(nil), s.Beamformer.Offsets...)
}

// realizeLink realizes sc into a placement and binds this System's
// chains to it, returning the link and a trace wired to s.Observer.
func (s *System) realizeLink(sc scenario.Scenario, r *rng.Rand) (*link.Link, *session.Trace, error) {
	p, err := sc.Realize(s.Beamformer.N(), r)
	if err != nil {
		return nil, nil, err
	}
	tr := session.NewTrace(s.Observer)
	if err := link.RealizeInto(&s.lk, s.Beamformer, s.Reader, p, tr); err != nil {
		return nil, nil, err
	}
	return &s.lk, tr, nil
}

// Session is the outcome of one full inventory exchange.
type Session struct {
	// PeakPowerDBm is the CIB envelope peak delivered to the sensor.
	PeakPowerDBm float64
	// Powered reports whether the sensor cleared its harvesting threshold.
	Powered bool
	// Decoded reports whether the reader recovered the RN16.
	Decoded bool
	// Correlation is the FM0 preamble correlation of the decode.
	Correlation float64
	// RN16 is the recovered slot random number (valid when Decoded).
	RN16 uint16
	// EPC is the sensor identifier recovered after ACK (nil if the
	// exchange stopped earlier).
	EPC []byte
}

// String summarizes a Session.
func (s Session) String() string {
	switch {
	case !s.Powered:
		return fmt.Sprintf("Session{unpowered, peak %.1f dBm}", s.PeakPowerDBm)
	case !s.Decoded:
		return fmt.Sprintf("Session{powered (%.1f dBm) but uplink not decoded}", s.PeakPowerDBm)
	case s.EPC == nil:
		return fmt.Sprintf("Session{RN16=%#04x, corr %.3f, peak %.1f dBm}", s.RN16, s.Correlation, s.PeakPowerDBm)
	default:
		return fmt.Sprintf("Session{RN16=%#04x EPC=%x, corr %.3f, peak %.1f dBm}", s.RN16, s.EPC, s.Correlation, s.PeakPowerDBm)
	}
}

// Inventory runs a full exchange against a sensor of the given model in
// the scenario: CIB power-up, synchronized Query, RN16 decode through the
// out-of-band reader, then ACK and EPC decode. Each call realizes a fresh
// placement (position/orientation/multipath draw).
func (s *System) Inventory(sc scenario.Scenario, model tag.Model) (*Session, error) {
	out := &Session{}
	if _, _, _, err := s.handshake(s.root.Split("inventory"), sc, model, nil, out); err != nil {
		return nil, err
	}
	return out, nil
}

// handshake realizes sc from r and runs the single-sensor handshake into
// out: a sensor of the given model (commissioned by provision, when
// non-nil) is powered by the CIB peak, singulated (Query → RN16 under
// "rn16") and acknowledged (ACK → EPC under "epc"). ok reports that the
// EPC was read; the exchange and the sensor then carry on to access
// commands.
func (s *System) handshake(r *rng.Rand, sc scenario.Scenario, model tag.Model, provision func(*gen2.TagLogic), out *Session) (x session.Exchange, tg *tag.Tag, ok bool, err error) {
	lk, tr, err := s.realizeLink(sc, r)
	if err != nil {
		return x, nil, false, err
	}
	out.PeakPowerDBm = lk.PeakPowerDBm()

	var tagRand rng.Rand
	r.SplitInto(&tagRand, "tag")
	tg, err = tag.New(model, []byte{0xE2, 0x00, 0x68, 0x10, 0x00, 0x01}, &tagRand)
	if err != nil {
		return x, nil, false, err
	}
	if provision != nil {
		provision(tg.Logic)
	}
	x = session.Exchange{Link: lk, Trace: tr}
	out.Powered = x.PowerUp(tg, lk.PeakPower())
	if !out.Powered {
		return x, tg, false, nil
	}

	// Query (flatness-checked) → RN16 through the out-of-band reader.
	sr, err := x.Singulate(tg, &gen2.Query{Q: 0, Session: gen2.S0}, "rn16", r)
	if err != nil || !sr.Decoded {
		return x, tg, false, err
	}
	out.Decoded = true
	out.Correlation = sr.Correlation
	out.RN16 = sr.RN16

	// ACK → EPC (the reply also confirms the handshake took).
	out.EPC, ok, err = x.AckEPC(tg, sr.RN16, "epc", r)
	return x, tg, ok, err
}

// InventorySelect addresses one sensor among several by EPC prefix using
// the §3.7 multi-sensor extension: a Select command asserts the SL flag on
// the matching sensor, then a Sel=SL Query solicits only it. tags maps EPC
// bytes to models; the exchange returns the session with the matching
// sensor.
func (s *System) InventorySelect(sc scenario.Scenario, sensors map[string]tag.Model, targetEPC []byte) (*Session, error) {
	if len(sensors) == 0 {
		return nil, fmt.Errorf("ivn: no sensors")
	}
	r := s.root.Split("inventory-select")
	lk, tr, err := s.realizeLink(sc, r)
	if err != nil {
		return nil, err
	}
	out := &Session{PeakPowerDBm: lk.PeakPowerDBm()}
	x := session.Exchange{Link: lk, Trace: tr}

	// Build every tag, power them all from the shared field. The map is
	// iterated in sorted-EPC order: r.Split advances the parent stream, so
	// iteration order would otherwise change every tag's randomness (and
	// the tags slice order) from run to run.
	var tags []*tag.Tag
	var tagRand rng.Rand
	for _, epcStr := range sortedEPCs(sensors) {
		r.SplitInto(&tagRand, "tag-"+epcStr)
		tg, err := tag.New(sensors[epcStr], []byte(epcStr), &tagRand)
		if err != nil {
			return nil, err
		}
		x.PowerUp(tg, lk.PeakPower())
		tags = append(tags, tg)
	}

	// Select the target by full-EPC mask, then Query only SL tags. The
	// combined command duration is flatness-checked by the beamformer.
	sel := &gen2.Select{Target: 4, Action: 0, MemBank: 1, Pointer: 0, Mask: gen2.BitsFromBytes(targetEPC)}
	q := &gen2.Query{Q: 0, Sel: 3, Session: gen2.S0}
	replies, responders, err := x.Select(tags, sel, q)
	if err != nil {
		return nil, err
	}
	switch len(replies) {
	case 0:
		out.Powered = anyPowered(tags)
		return out, nil
	case 1:
		// proceed
	default:
		return nil, fmt.Errorf("ivn: select matched %d sensors; collision", len(replies))
	}
	out.Powered = true
	responder := responders[0]
	sg, err := x.DecodeRN16(responder, replies[0], "rn16", r)
	if err != nil {
		return nil, err
	}
	if !sg.Decoded {
		return out, nil
	}
	out.Decoded = true
	out.Correlation = sg.Correlation
	out.RN16 = sg.RN16
	out.EPC = responder.Logic.EPC()
	return out, nil
}

// AccessResult is the outcome of a memory access exchange.
type AccessResult struct {
	Session
	// Words holds the data returned by ReadWords.
	Words []uint16
	// Written reports a confirmed WriteWord.
	Written bool
}

// access runs the full handshake to the Open state and then one access
// command built by mk from the granted handle.
func (s *System) access(sc scenario.Scenario, model tag.Model, mk func(handle uint16) gen2.Command, wantKind gen2.ReplyKind) (*AccessResult, gen2.Bits, error) {
	return s.accessWith(sc, model, nil, func(h uint16) []gen2.Command {
		return []gen2.Command{mk(h)}
	}, wantKind)
}

// accessWith runs the handshake, applies an optional tag provisioning hook
// (e.g. setting an access password at commissioning time), then issues the
// command sequence mk builds from the granted handle. The final command's
// reply is returned; intermediate commands (e.g. Access) must elicit
// non-silent replies that decode over the uplink.
func (s *System) accessWith(sc scenario.Scenario, model tag.Model, provision func(*gen2.TagLogic), mk func(handle uint16) []gen2.Command, wantKind gen2.ReplyKind) (*AccessResult, gen2.Bits, error) {
	r := s.root.Split("access")
	out := &AccessResult{}
	x, tg, ok, err := s.handshake(r, sc, model, provision, &out.Session)
	if err != nil {
		return nil, nil, err
	}
	if !ok {
		return out, nil, nil
	}

	// ReqRN → handle.
	handle, ok, err := x.ReqRNHandle(tg, out.RN16, "handle", r)
	if err != nil {
		return nil, nil, err
	}
	if !ok {
		return out, nil, nil
	}

	// The access command sequence; every step must be transmitted,
	// answered, and uplink-decoded.
	lastBits, ok, err := x.Access(tg, mk(handle), wantKind, r)
	if err != nil {
		return nil, nil, err
	}
	if !ok {
		return out, nil, nil
	}
	return out, lastBits, nil
}

// ReadWords reads count 16-bit words from the sensor's memory bank over
// the air: CIB power-up, singulation, ReqRN handle, then a Gen2 Read —
// the "monitoring internal vital signs" path of the paper's introduction
// with the sensor's registers standing in for physiological data.
func (s *System) ReadWords(sc scenario.Scenario, model tag.Model, bank gen2.MemoryBank, ptr, count byte) (*AccessResult, error) {
	res, bits, err := s.access(sc, model, func(h uint16) gen2.Command {
		return &gen2.Read{Bank: bank, WordPtr: ptr, WordCount: count, Handle: h}
	}, gen2.ReplyRead)
	if err != nil {
		return nil, err
	}
	if bits == nil {
		return res, nil
	}
	var rep gen2.ReadReply
	if err := rep.DecodeFromBits(bits, int(count)); err != nil {
		return res, nil
	}
	res.Words = rep.Words
	return res, nil
}

// WriteWord writes one 16-bit word into the sensor's user memory over the
// air — the actuation path ("delivering drugs", "bioactuators"): a
// deep-tissue Write into an actuation register triggers the device.
func (s *System) WriteWord(sc scenario.Scenario, model tag.Model, ptr byte, value uint16) (*AccessResult, error) {
	res, bits, err := s.access(sc, model, func(h uint16) gen2.Command {
		return &gen2.Write{Bank: gen2.BankUser, WordPtr: ptr, Data: value, Handle: h}
	}, gen2.ReplyWrite)
	if err != nil {
		return nil, err
	}
	if bits == nil {
		return res, nil
	}
	var rep gen2.WriteReply
	if err := rep.DecodeFromBits(bits); err != nil {
		return res, nil
	}
	res.Written = true
	return res, nil
}

// WriteWordSecured is WriteWord against a password-protected actuator: it
// inserts the Gen2 Access exchange (proving knowledge of the 32-bit access
// password) between the handle grant and the Write. An actuator
// provisioned with a password ignores unauthenticated Writes entirely —
// the authorization layer on top of the threshold effect's physical
// fail-safe.
func (s *System) WriteWordSecured(sc scenario.Scenario, model tag.Model, provision func(*gen2.TagLogic), password uint32, ptr byte, value uint16) (*AccessResult, error) {
	res, bits, err := s.accessWith(sc, model, provision, func(h uint16) []gen2.Command {
		return []gen2.Command{
			&gen2.Access{Password: password, Handle: h},
			&gen2.Write{Bank: gen2.BankUser, WordPtr: ptr, Data: value, Handle: h},
		}
	}, gen2.ReplyWrite)
	if err != nil {
		return nil, err
	}
	if bits == nil {
		return res, nil
	}
	var rep gen2.WriteReply
	if err := rep.DecodeFromBits(bits); err != nil {
		return res, nil
	}
	res.Written = true
	return res, nil
}

// ErrInventoryIncomplete reports that an inventory exhausted its round
// budget with reachable sensors still unread. InventoryPopulation wraps
// it, and the partial EPC list accompanies the error — check with
// errors.Is and consume what was read rather than discarding it.
var ErrInventoryIncomplete = session.ErrInventoryIncomplete

// InventoryPopulation powers a whole sensor population with CIB and runs
// the adaptive slotted-ALOHA inventory (Gen2 Q-algorithm) until every
// reachable sensor is read or maxRounds is exhausted. A sensor is
// reachable when the CIB peak powers it AND its backscatter closes the
// out-of-band link budget. Returns the EPCs read, in singulation order.
// When the round budget runs out first, the partial EPC list is returned
// alongside an error wrapping ErrInventoryIncomplete.
func (s *System) InventoryPopulation(sc scenario.Scenario, sensors map[string]tag.Model, maxRounds int) ([][]byte, error) {
	if len(sensors) == 0 {
		return nil, fmt.Errorf("ivn: no sensors")
	}
	r := s.root.Split("inventory-population")
	lk, tr, err := s.realizeLink(sc, r)
	if err != nil {
		return nil, err
	}
	peak := lk.PeakPower()

	// Sorted-EPC iteration: r.Split advances the parent stream and
	// `reachable` feeds the singulation order the caller sees, so map
	// iteration order must not leak into either.
	var reachable []*gen2.TagLogic
	var tagRand rng.Rand
	for _, epcStr := range sortedEPCs(sensors) {
		model := sensors[epcStr]
		r.SplitInto(&tagRand, "tag-"+epcStr)
		tg, err := tag.New(model, []byte(epcStr), &tagRand)
		if err != nil {
			return nil, err
		}
		tg.UpdatePower(peak)
		if !tg.Powered() {
			continue
		}
		if !lk.DecodableRN16(model) {
			continue
		}
		reachable = append(reachable, tg.Logic)
	}
	if len(reachable) == 0 {
		return nil, nil
	}
	ic := session.NewInventoryController(gen2.S0)
	ic.Trace = tr
	return ic.InventoryAll(reachable, maxRounds, r.Split("rounds"))
}

// sortedEPCs returns a population's EPC keys in sorted order, so sessions
// are reproducible regardless of map iteration order.
func sortedEPCs(sensors map[string]tag.Model) []string {
	epcs := make([]string, 0, len(sensors))
	for epcStr := range sensors {
		epcs = append(epcs, epcStr)
	}
	sort.Strings(epcs)
	return epcs
}

func anyPowered(tags []*tag.Tag) bool {
	for _, tg := range tags {
		if tg.Powered() {
			return true
		}
	}
	return false
}

// SurveyGain measures the peak-power gain of this System's CIB over a
// single antenna across trials placements of sc, returning median and
// percentile statistics — the Fig. 9 measurement as a library call.
func (s *System) SurveyGain(sc scenario.Scenario, trials int) (stats.Summary, error) {
	if trials < 1 {
		return stats.Summary{}, fmt.Errorf("ivn: %d trials", trials)
	}
	n := s.Beamformer.N()
	gains := make([]float64, 0, trials)
	for i := 0; i < trials; i++ {
		r := s.root.SplitIndexed("survey", i)
		p, err := sc.Realize(n, r)
		if err != nil {
			return stats.Summary{}, err
		}
		s.Beamformer.Relock(r.Split("pll"))
		if err := link.RealizeInto(&s.lk, s.Beamformer, s.Reader, p, nil); err != nil {
			return stats.Summary{}, err
		}
		amp := s.Beamformer.Carriers()[0].Amplitude
		single, err := baseline.PeakReceivedPower(baseline.SingleAntenna(s.Beamformer.CenterFreq, amp), s.lk.Downlink()[:1], link.ScanDuration, 1)
		if err != nil {
			return stats.Summary{}, err
		}
		gains = append(gains, s.lk.PeakPower()/single)
	}
	return stats.Summarize(gains)
}

// OptimizePlan runs the §3.6 one-time Monte-Carlo frequency optimization
// for n carriers under the default (α = 0.5, Δt = 800 µs) constraint.
func OptimizePlan(n int, seed uint64) (core.Plan, error) {
	return core.Optimize(n, core.DefaultOptimizerConfig(), rng.New(seed))
}

// PaperPlan returns the published prototype frequency plan.
func PaperPlan() []float64 { return core.PaperOffsets() }

// BestKnownPlan returns the library's precomputed near-optimal Δf plan for
// n carriers (2-10) — stronger than the paper prefix for every n, found by
// a long offline optimizer run (see internal/core/genplans).
func BestKnownPlan(n int) ([]float64, error) { return core.BestKnownPlan(n) }
