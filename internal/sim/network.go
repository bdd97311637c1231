package sim

import (
	"fmt"
	"math"
	"sort"

	"mmtag/internal/antenna"
	"mmtag/internal/ap"
	"mmtag/internal/channel"
	"mmtag/internal/mac"
	"mmtag/internal/obs"
	"mmtag/internal/tag"
	"mmtag/internal/vanatta"
)

// Placement positions one tag in the AP's polar frame.
type Placement struct {
	// Device is the tag hardware model.
	Device *tag.Tag
	// DistanceM is the AP-tag range.
	DistanceM float64
	// AzimuthRad is the direction of the tag as seen from the AP
	// (radians from the AP array's broadside).
	AzimuthRad float64
	// OrientationRad is the incidence angle at the tag: the angle
	// between the tag array's broadside and the direction back to the
	// AP. Zero means the tag faces the AP squarely.
	OrientationRad float64
	// ExtraLossDB is additional one-way link loss applied on top of the
	// propagation model — the hook the mobility runner uses for
	// blockage episodes (a human body at mmWave costs 20-40 dB).
	ExtraLossDB float64
}

// Interferer is a co-channel transmitter (a neighbouring AP) whose
// carrier raises the victim AP's interference floor. Its contribution
// depends on the victim's current beam: an interferer in the beam's
// direction couples through the main lobe; elsewhere only through
// sidelobes.
type Interferer struct {
	// AzimuthRad is the interferer's bearing from the victim AP.
	AzimuthRad float64
	// DistanceM is its range from the victim AP.
	DistanceM float64
	// EIRPW is the interferer's radiated power toward the victim
	// (transmit power × its antenna gain in this direction), watts.
	EIRPW float64
}

// Network is an AP plus a set of placed tags over a propagation model.
// It implements mac.Medium from first principles: every SNR the MAC sees
// comes out of the monostatic backscatter link budget.
//
// The budget's three costly terms — co-channel interference, AP gain
// toward the tag and the tag reflector's gain — are memoized for the
// Network's lifetime, each keyed on the exact inputs it was computed
// from, so a hit returns the very bits recomputing would (DESIGN.md
// §6.1). AP and PathLoss are fixed at construction.
type Network struct {
	AP          *ap.AP
	PathLoss    channel.PathLoss
	tags        map[uint8]*tagEntry
	interferers []Interferer
	// interference memoizes interferenceW per beam (Float64bits);
	// AddInterferer resets it.
	interference memo[uint64]

	// Instrumentation (all nil-safe; see Instrument).
	linkObs    *channel.LinkObs
	snrQueries *obs.Counter
	inaudible  *obs.Counter
}

// NewNetwork builds an empty network around an AP. A nil pathloss means
// free space at the AP's carrier.
func NewNetwork(a *ap.AP, pl channel.PathLoss) (*Network, error) {
	if a == nil {
		return nil, fmt.Errorf("sim: AP is required")
	}
	if pl == nil {
		pl = channel.FreeSpace{FreqHz: a.Config().FreqHz}
	}
	return &Network{AP: a, PathLoss: pl, tags: make(map[uint8]*tagEntry)}, nil
}

// memo caches one value computed from exactly the inputs in key. Float
// inputs enter keys as math.Float64bits, so +0 and -0 (or two NaN
// payloads) never share a slot.
type memo[K comparable] struct {
	key K
	val float64
	ok  bool
}

// get returns the cached value for key, computing and storing it first
// when the slot holds another key.
func (m *memo[K]) get(key K, compute func() float64) float64 {
	if !m.ok || m.key != key {
		m.key, m.val, m.ok = key, compute(), true
	}
	return m.val
}

// apGainKey is an AP-gain memo key: steering and tag azimuth.
type apGainKey struct{ beam, azimuth uint64 }

// reflectorKey is a reflector-gain memo key: the tag's array and its
// incidence angle.
type reflectorKey struct {
	array *vanatta.Array
	angle uint64
}

// tagEntry is one placed tag plus its memoized budget terms. Placement
// hands out a pointer to the embedded Placement, which callers (the
// mobility runner, experiments) rewrite between queries; the memo keys
// carry the geometry they were computed under, so a moved tag simply
// misses.
type tagEntry struct {
	Placement
	apGain    memo[apGainKey]
	reflector memo[reflectorKey]
}

// MonostaticGain implements vanatta.Reflector for the tag's link
// budget: the tag array's gain, memoized on (array, angle).
func (e *tagEntry) MonostaticGain(theta float64) float64 {
	arr := e.Device.Array()
	return e.reflector.get(reflectorKey{arr, math.Float64bits(theta)},
		func() float64 { return arr.MonostaticGain(theta) })
}

// Name implements vanatta.Reflector.
func (e *tagEntry) Name() string { return e.Device.Array().Name() }

// Instrument meters the network's link-budget activity into the
// handle's registry: per-query counters plus the channel-level budget
// instruments threaded into every Link it builds. Nil handles no-op.
func (n *Network) Instrument(h *obs.Handle) {
	reg := h.Registry()
	if reg == nil {
		return
	}
	n.linkObs = channel.NewLinkObs(reg)
	n.snrQueries = reg.Counter("sim_snr_queries_total",
		"MAC-visible SNR queries answered by the network.")
	n.inaudible = reg.Counter("sim_snr_inaudible_total",
		"SNR queries answered inaudible (out of range, rate unusable).")
}

// AddTag places a tag. IDs must be unique; distance must be positive.
func (n *Network) AddTag(p Placement) error {
	if p.Device == nil {
		return fmt.Errorf("sim: placement needs a device")
	}
	if p.DistanceM <= 0 {
		return fmt.Errorf("sim: tag distance must be positive, got %g", p.DistanceM)
	}
	id := p.Device.ID()
	if _, dup := n.tags[id]; dup {
		return fmt.Errorf("sim: duplicate tag ID %d", id)
	}
	n.tags[id] = &tagEntry{Placement: p}
	return nil
}

// TagCount returns the number of placed tags.
func (n *Network) TagCount() int { return len(n.tags) }

// Placement returns a tag's placement.
func (n *Network) Placement(id uint8) (*Placement, bool) {
	e, ok := n.tags[id]
	if !ok {
		return nil, false
	}
	return &e.Placement, true
}

// Tags implements mac.Medium.
func (n *Network) Tags() []uint8 {
	out := make([]uint8, 0, len(n.tags))
	for id := range n.tags {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AddInterferer registers a co-channel transmitter.
func (n *Network) AddInterferer(i Interferer) error {
	if i.DistanceM <= 0 || i.EIRPW <= 0 {
		return fmt.Errorf("sim: interferer needs positive distance and EIRP")
	}
	n.interferers = append(n.interferers, i)
	n.interference = memo[uint64]{}
	return nil
}

// InterferenceW returns the total co-channel interference power at the
// victim receiver for the AP's current steering.
func (n *Network) interferenceW() float64 {
	total := 0.0
	for _, i := range n.interferers {
		rxGain := n.AP.GainToward(i.AzimuthRad)
		total += i.EIRPW * rxGain / n.PathLoss.Loss(i.DistanceM)
	}
	return total
}

// link assembles the budget for a tag under a given beam and modulation
// efficiency, drawing its gain and interference terms from the memos.
func (n *Network) link(p *tagEntry, beamRad, efficiency float64) channel.Link {
	n.AP.Steer(beamRad)
	beam := math.Float64bits(beamRad)
	return channel.Link{
		Obs:           n.linkObs,
		InterferenceW: n.interference.get(beam, n.interferenceW),
		FreqHz:        n.AP.Config().FreqHz,
		TxPowerW:      n.AP.Config().TxPowerW,
		APGain: p.apGain.get(apGainKey{beam, math.Float64bits(p.AzimuthRad)},
			func() float64 { return n.AP.GainToward(p.AzimuthRad) }),
		Reflector:     p,
		TagAngleRad:   p.OrientationRad,
		DistanceM:     p.DistanceM,
		PathLoss:      n.PathLoss,
		ModEfficiency: efficiency,
		NoiseFigureDB: n.AP.Config().NoiseFigureDB,
		MiscLossDB:    p.ExtraLossDB,
	}
}

// SNR implements mac.Medium: the uplink SNR in the rate's symbol-rate
// noise bandwidth, plus whether the tag's envelope detector hears the
// query at all. Rates the tag hardware cannot produce — a different
// alphabet than its switch network implements, or a symbol rate beyond
// its switch rise time — report as inaudible so the MAC never selects
// them.
func (n *Network) SNR(tagID uint8, beamRad float64, r mac.Rate) (float64, bool) {
	n.snrQueries.Inc()
	p, ok := n.tags[tagID]
	if !ok {
		n.inaudible.Inc()
		return 0, false
	}
	if r.SymbolRate() > p.Device.MaxSymbolRate() {
		n.inaudible.Inc()
		return 0, false
	}
	// Alphabet capability: a rate is usable natively when it names the
	// tag's own alphabet, and any 1-bit/symbol rate is usable on any tag
	// (binary signalling over two of its termination states, the same
	// mechanism the sync preamble uses). Higher-order rates on a tag
	// without that switch network are not producible.
	if r.Mod.Name != p.Device.Modulation().Name() && r.Mod.BitsPerSymbol != 1 {
		n.inaudible.Inc()
		return 0, false
	}
	eff := r.Mod.Efficiency
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	l := n.link(p, beamRad, eff)
	incident, err := l.TagIncidentPowerW()
	if err != nil || !p.Device.CanHear(incident) {
		n.inaudible.Inc()
		return 0, false
	}
	snr, err := l.SNR(r.SymbolRate())
	if err != nil {
		n.inaudible.Inc()
		return 0, false
	}
	return snr, true
}

// UplinkSNRdB returns the budget SNR in dB for diagnostics/experiments,
// steering the beam straight at the tag.
func (n *Network) UplinkSNRdB(tagID uint8, bandwidthHz, efficiency float64) (float64, error) {
	p, ok := n.tags[tagID]
	if !ok {
		return 0, fmt.Errorf("sim: unknown tag %d", tagID)
	}
	l := n.link(p, p.AzimuthRad, efficiency)
	return l.SNRdB(bandwidthHz)
}

// SDMGroups partitions the known tag IDs into groups that can be served
// concurrently by separate beams: within a group, every pair is
// separated in azimuth by at least minSepRad (greedy first-fit by
// azimuth). Tags in the same group get simultaneous slots; the number
// of groups is the TDMA cycle length under SDM.
func (n *Network) SDMGroups(ids []uint8, minSepRad float64) [][]uint8 {
	type entry struct {
		id uint8
		az float64
	}
	entries := make([]entry, 0, len(ids))
	for _, id := range ids {
		if p, ok := n.tags[id]; ok {
			entries = append(entries, entry{id, p.AzimuthRad})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].az < entries[j].az })
	var groups [][]uint8
	var groupLastAz []float64
	for _, e := range entries {
		placed := false
		for g := range groups {
			if math.Abs(e.az-groupLastAz[g]) >= minSepRad {
				groups[g] = append(groups[g], e.id)
				groupLastAz[g] = e.az
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, []uint8{e.id})
			groupLastAz = append(groupLastAz, e.az)
		}
	}
	return groups
}

// BeamSeparation returns the AP's half-power beamwidth, the natural
// minimum SDM separation.
func (n *Network) BeamSeparation() float64 {
	return n.AP.Array().HalfPowerBeamwidth()
}

// Codebook returns the AP's discovery beams covering ±sector.
func (n *Network) Codebook(sectorRad float64) []float64 {
	return n.AP.Beams(sectorRad)
}

// Deg re-exports the degree conversion for callers building placements.
func Deg(d float64) float64 { return antenna.Deg(d) }
