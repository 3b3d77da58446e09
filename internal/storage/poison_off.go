//go:build !stethopoison

package storage

// poisoned is false in every product build; see poison_on.go.
const poisoned = false
