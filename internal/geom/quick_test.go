package geom

import (
	"math"
	"testing"
	"testing/quick"
)

// boxSpec is a quick-generated bounded box; coordinates fold into the
// working window.
type boxSpec struct {
	CX, CY uint16
	W, H   uint8
}

func (b boxSpec) poly() Polyhedron {
	cx := float64(b.CX%100) - 50
	cy := float64(b.CY%100) - 50
	w := float64(b.W%40)/2 + 0.25
	h := float64(b.H%40)/2 + 0.25
	p, err := FromHalfSpaces([]HalfSpace{
		HalfPlane2(1, 0, -(cx - w), GE),
		HalfPlane2(1, 0, -(cx + w), LE),
		HalfPlane2(0, 1, -(cy - h), GE),
		HalfPlane2(0, 1, -(cy + h), LE),
	}, 2)
	if err != nil {
		panic(err)
	}
	return p
}

// TestQuickTopBotBox: closed forms for boxes — TOP(a) = cy+h + |a|·w' and
// BOT symmetric — expressed via corner maxima.
func TestQuickTopBotBox(t *testing.T) {
	f := func(b boxSpec, aRaw int8) bool {
		p := b.poly()
		a := float64(aRaw) / 8
		g := p.Pack()
		x0, x1 := g.Extent(0)
		y0, y1 := g.Extent(1)
		// TOP(a) = max over the 4 corners of (y − a·x).
		want := math.Inf(-1)
		wantBot := math.Inf(1)
		for _, x := range []float64{x0, x1} {
			for _, y := range []float64{y0, y1} {
				v := y - a*x
				want = math.Max(want, v)
				wantBot = math.Min(wantBot, v)
			}
		}
		return math.Abs(p.Top([]float64{a})-want) < 1e-7 &&
			math.Abs(p.Bot([]float64{a})-wantBot) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickEnvelopeAgreesWithSupport: the 2-D envelope and the support
// function must agree everywhere, for quick-generated boxes and slopes.
func TestQuickEnvelopeAgreesWithSupport(t *testing.T) {
	f := func(b boxSpec, aRaw int16) bool {
		p := b.poly()
		top := TopEnvelope2(p)
		bot := BotEnvelope2(p)
		a := float64(aRaw) / 256
		return math.Abs(top.Eval(a)-p.Top([]float64{a})) < 1e-7 &&
			math.Abs(bot.Eval(a)-p.Bot([]float64{a})) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickHalfSpaceSlopeFormAgreement: SlopeForm preserves the point set.
func TestQuickHalfSpaceSlopeFormAgreement(t *testing.T) {
	f := func(aRaw, bRaw, cRaw, pxRaw, pyRaw int16, le bool) bool {
		b := float64(bRaw) / 64
		if math.Abs(b) < 1e-3 {
			return true // vertical: no slope form
		}
		op := GE
		if le {
			op = LE
		}
		h := HalfPlane2(float64(aRaw)/64, b, float64(cRaw)/64, op)
		slope, icpt, sop, err := h.SlopeForm()
		if err != nil {
			return false
		}
		h2 := FromSlopeForm(slope, icpt, sop)
		p := Pt2(float64(pxRaw)/32, float64(pyRaw)/32)
		if h.OnBoundary(p) || h2.OnBoundary(p) {
			return true // boundary ties are tolerance-dependent
		}
		return h.Contains(p) == h2.Contains(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
