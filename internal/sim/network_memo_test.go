package sim

import (
	"math"
	"math/rand"
	"testing"

	"mmtag/internal/ap"
	"mmtag/internal/mac"
	"mmtag/internal/obs"
	"mmtag/internal/tag"
	"mmtag/internal/vanatta"
)

// memoDevices builds three tags with different arrays, alphabets and
// switch speeds, so the rate-capability gates and the per-array
// reflector memo all come into play.
func memoDevices(t testing.TB) []*tag.Tag {
	t.Helper()
	specs := []struct {
		id       uint8
		elements int
		mod      vanatta.StateSet
		rise     float64
	}{
		{1, 8, vanatta.OOK(), 2e-9},
		{2, 16, vanatta.QPSK(), 1e-9},
		{3, 4, vanatta.QAM16(), 20e-9},
	}
	out := make([]*tag.Tag, 0, len(specs))
	for _, s := range specs {
		arr, err := vanatta.New(vanatta.Config{Elements: s.elements, InsertionLossDB: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		tg, err := tag.New(tag.Config{ID: s.id, Array: arr, Modulation: s.mod, SwitchRiseTime: s.rise})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tg)
	}
	return out
}

// memoNetwork builds a network over devs with the given placements
// (written through Placement, so any geometry is accepted) and
// interferers, and no query history.
func memoNetwork(t testing.TB, devs []*tag.Tag, places map[uint8]Placement, ifs []Interferer) *Network {
	t.Helper()
	a, err := ap.New(ap.Config{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNetwork(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range devs {
		if err := n.AddTag(Placement{Device: d, DistanceM: 1}); err != nil {
			t.Fatal(err)
		}
		p, _ := n.Placement(d.ID())
		*p = places[d.ID()]
	}
	for _, i := range ifs {
		if err := n.AddInterferer(i); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// Palettes the fuzz decoder draws from. Small palettes make repeats —
// memo hits — common; the entries include the inputs a bit-keyed memo
// must not conflate (+0/-0, a 1e-12 nudge, NaN) and placements the
// link budget rejects (non-positive range).
var (
	memoAngles = []float64{0, math.Copysign(0, -1), 0.1, 0.1 + 1e-12, -0.1, 0.35, -0.35,
		0.7, -1.25, math.Pi / 2, math.NaN()}
	memoDistances = []float64{0.3, 1, 2.5, 4, 7.5, 15, 40, 0, -2}
	memoLosses    = []float64{0, 3, 20, 40, -1}
	memoBandwidth = []float64{1e6, 10e6, 25e6}
	memoEff       = []float64{1, 0.5, 0.25, 0, 1.5}
	memoEIRP      = []float64{1e-3, 0.1, 1}
)

// memoOps decodes fuzz input into network operations.
type memoOps struct{ data []byte }

func (o *memoOps) next() (byte, bool) {
	if len(o.data) == 0 {
		return 0, false
	}
	b := o.data[0]
	o.data = o.data[1:]
	return b, true
}

func (o *memoOps) pick(n int) int {
	b, _ := o.next()
	return int(b) % n
}

// angle mostly draws from the palette and otherwise spans ±2 rad in
// 1/64 rad steps.
func (o *memoOps) angle() float64 {
	b, _ := o.next()
	if int(b) < len(memoAngles) {
		return memoAngles[b]
	}
	return float64(int(b)-128) / 64
}

// FuzzNetworkSNRMemo drives one Network through a random interleaving
// of SNR and UplinkSNRdB queries, AddInterferer calls and placement
// rewrites, and checks every answer is bit-identical to the answer of a
// freshly built Network in the same state with no query history — the
// memo contract of Network.SNR.
func FuzzNetworkSNRMemo(f *testing.F) {
	// Op encoding: op%7 selects SNR {id, beam, rate}, UplinkSNRdB {id,
	// bandwidth, efficiency}, AddInterferer {id, azimuth, range, EIRP},
	// or a write of azimuth, range, orientation or loss {id, value}.
	// Each hand-written seed queries, changes one memo input, and asks
	// the same question again.
	f.Add([]byte{0, 0, 2, 0, 3, 0, 5, 0, 0, 2, 0})                      // azimuth moves
	f.Add([]byte{0, 0, 2, 0, 5, 0, 6, 0, 0, 2, 0})                      // orientation moves
	f.Add([]byte{0, 0, 2, 0, 4, 0, 7, 0, 0, 2, 0, 6, 0, 2, 0, 0, 2, 0}) // range, then loss
	f.Add([]byte{0, 0, 2, 0, 2, 0, 3, 0, 2, 0, 0, 2, 0})                // interferer joins
	f.Add([]byte{1, 0, 0, 0, 2, 0, 2, 0, 2, 1, 0, 0, 0})                // same, uplink query
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 3, 0, 1, 0, 0, 0, 0})          // +0 and -0
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3; i++ {
		seed := make([]byte, 96)
		rng.Read(seed)
		f.Add(seed)
	}
	devs := memoDevices(f)
	rates := mac.DefaultRateTable()
	f.Fuzz(func(t *testing.T, data []byte) {
		places := map[uint8]Placement{}
		for i, d := range devs {
			places[d.ID()] = Placement{Device: d, DistanceM: 2 + float64(i),
				AzimuthRad: 0.2 * float64(i-1)}
		}
		var ifs []Interferer
		n := memoNetwork(t, devs, places, nil)
		ops := &memoOps{data: data}
		for step := 0; step < 64; step++ {
			op, ok := ops.next()
			if !ok {
				return
			}
			id := uint8(1 + ops.pick(len(devs)+1)) // 4 is never placed
			switch op % 7 {
			case 0:
				beam, r := ops.angle(), rates[ops.pick(len(rates))]
				got, gotOK := n.SNR(id, beam, r)
				want, wantOK := memoNetwork(t, devs, places, ifs).SNR(id, beam, r)
				if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d: SNR(%d, %v, %v) = %v,%v; fresh network %v,%v",
						step, id, beam, r, got, gotOK, want, wantOK)
				}
			case 1:
				bw, eff := memoBandwidth[ops.pick(len(memoBandwidth))], memoEff[ops.pick(len(memoEff))]
				got, gotErr := n.UplinkSNRdB(id, bw, eff)
				want, wantErr := memoNetwork(t, devs, places, ifs).UplinkSNRdB(id, bw, eff)
				if (gotErr == nil) != (wantErr == nil) || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d: UplinkSNRdB(%d, %g, %g) = %v,%v; fresh network %v,%v",
						step, id, bw, eff, got, gotErr, want, wantErr)
				}
			case 2:
				i := Interferer{AzimuthRad: ops.angle(), DistanceM: 3 * float64(1+ops.pick(4)),
					EIRPW: memoEIRP[ops.pick(len(memoEIRP))]}
				if math.IsNaN(i.AzimuthRad) {
					i.AzimuthRad = 0.5
				}
				if err := n.AddInterferer(i); err != nil {
					t.Fatal(err)
				}
				ifs = append(ifs, i)
			default:
				p, ok := n.Placement(id)
				if !ok {
					continue
				}
				switch op % 7 {
				case 3:
					p.AzimuthRad = ops.angle()
				case 4:
					p.DistanceM = memoDistances[ops.pick(len(memoDistances))]
				case 5:
					p.OrientationRad = ops.angle()
				case 6:
					p.ExtraLossDB = memoLosses[ops.pick(len(memoLosses))]
				}
				places[id] = *p
			}
		}
	})
}

// TestNetworkSNRWarmZeroAlloc pins the hot path's allocation budget: a
// warm SNR query — memo hits, link budget built on the stack — makes no
// heap allocation, with and without instrumentation.
func TestNetworkSNRWarmZeroAlloc(t *testing.T) {
	for _, instrumented := range []bool{false, true} {
		n := newNetwork(t)
		if instrumented {
			n.Instrument(obs.NewHandle(obs.NewRegistry(), nil))
		}
		if err := n.AddTag(Placement{Device: newTag(t, 1, 8), DistanceM: 3, AzimuthRad: 0.2}); err != nil {
			t.Fatal(err)
		}
		if err := n.AddInterferer(Interferer{AzimuthRad: -0.6, DistanceM: 8, EIRPW: 0.1}); err != nil {
			t.Fatal(err)
		}
		r := mac.DefaultRateTable()[1]
		if _, ok := n.SNR(1, 0.2, r); !ok {
			t.Fatal("tag inaudible")
		}
		if allocs := testing.AllocsPerRun(200, func() { n.SNR(1, 0.2, r) }); allocs != 0 {
			t.Errorf("instrumented=%v: warm SNR allocates %v times per query, want 0", instrumented, allocs)
		}
	}
}
