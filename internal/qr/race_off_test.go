//go:build !race

package qr

const raceEnabled = false
