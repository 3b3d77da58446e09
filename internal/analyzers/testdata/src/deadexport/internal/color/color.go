package color

// Palette names the colors.
const (
	Red  = "red"
	Blue = "blue" // want "exported color.Blue has no reference outside tests"
)
