package main

import (
	"fmt"

	paint "deadexport/internal/color"
	"deadexport/internal/shape"
)

func main() {
	fmt.Println(shape.Area(2, 3), shape.Point{X: 1}, paint.Red)
}
