// Package racedetect reports whether the running binary was built with
// the race detector. Allocation guards over pooled scratch skip there,
// because the race detector's sync.Pool drops pooled items at random.
package racedetect

import "runtime/debug"

// Enabled reports whether the binary was built with -race.
//
//nolint:stmaker/testonly -- the allocation guards of several packages' tests call it
func Enabled() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
