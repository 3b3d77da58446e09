package shape

import "testing"

func TestOnlyTestsReferenceThese(t *testing.T) {
	var g Grid
	_ = Scale(Limit) + Origin.X + g.Len() + Fact(3)
	g.Reset()
	Legacy()
}
