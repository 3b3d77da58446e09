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

// Len is a method that only tests select.
func (g *Grid) Len() int { return len(g.cells) } // want "exported method shape.Grid.Len has no selection outside tests"

// Reset has no selection in the module, and says why it stays.
//
//stetho:ignore deadexport kept for a caller outside the module
func (g *Grid) Reset() { g.cells = nil }

// grow is unexported: never judged.
func (g *Grid) grow() { g.cells = append(g.cells, 0) }

// Norm is selected by another package's non-test file.
func (p Point) Norm() int { return p.X*p.X + p.Y*p.Y }

// Edge is selected only through a method value inside its own package.
func (p Point) Edge() int { return perimeter(p.X, p.Y) }

// edger declares Paint, so a type can be reached through it without a
// selection of Paint.
type edger interface{ Paint() string }

// Paint is declared by an interface of the module.
func (p Point) Paint() string { return "point" }

var (
	_ edger = Point{}
	_       = Point{}.Edge
)

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
