package shape

// Area is called from another package's non-test file.
func Area(w, h int) int { return w * h * Unit }

// Unit is read by a non-test file of its own package.
const Unit = 1

// Point is used by another package.
type Point struct{ X, Y int }

// perimeter is unexported: never judged.
func perimeter(w, h int) int { return 2 * (w + h) }

// Scale is called only from tests.
func Scale(f int) int { return f * perimeter(1, 1) } // want "exported shape.Scale has no reference outside tests"

// Origin is read only from tests.
var Origin = Point{} // want "exported shape.Origin has no reference outside tests"

// Limit is read only from tests.
const Limit = 10 // want "exported shape.Limit has no reference outside tests"

// Grid is referenced only by its own methods' receivers.
type Grid struct{ cells []int } // want "exported shape.Grid has no reference outside tests"

// Len is a method: methods are not judged.
func (g *Grid) Len() int { return len(g.cells) }

// Fact refers only to itself.
func Fact(n int) int { // want "exported shape.Fact has no reference outside tests"
	if n < 2 {
		return 1
	}
	return n * Fact(n-1)
}

// Legacy has no caller in the module, and says why it stays.
//
//stetho:ignore deadexport kept for a caller outside the module
func Legacy() {}
