//go:build stethopoison

package storage

// poisoned is set by the stethopoison build tag, for tests only: every
// buffer the allocation helper hands out or takes back is overwritten
// with a sentinel (recycle.go). No product build sets the tag.
const poisoned = true
