package scenario

import "testing"

func TestFig8Stability(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	seedOne(t)
	s := ciFigures["fig8"]()[0]
	t.Log("\n" + s.String())
	for _, p := range s.Points {
		if p.Sample.Recall < 0.98 {
			t.Fatalf("%s recall %.3f", p.Label, p.Sample.Recall)
		}
		if p.Sample.OverheadBytes > 100e6 {
			t.Fatalf("%s overhead %.1fMB (storm)", p.Label, float64(p.Sample.OverheadBytes)/1e6)
		}
	}
}
