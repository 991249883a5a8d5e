// Package testonly is a lint fixture: functions and methods that only
// tests could call. Loaded under an import path inside internal/, where
// the check applies.
package testonly

import (
	"fmt"
	"sort"
)

func Unused() int { return 1 } // want "func Unused has no caller outside tests"

func unused() int { return 2 } // want "func unused has no caller outside tests"

func countdown(n int) int { // want "func countdown has no caller outside tests"
	if n <= 0 {
		return 0
	}
	return countdown(n - 1)
}

type counter int

func (c counter) Double() counter { return 2 * c } // want "method Double has no caller outside tests"

// String implements fmt.Stringer, so fmt reaches it without naming it.
func (c counter) String() string { return fmt.Sprintf("counter(%d)", int(c)) }

type shape interface{ Area() float64 }

type square struct{ side float64 }

// Area is reached only through the shape interface.
func (q square) Area() float64 { return q.side * q.side }

// byLen implements sort.Interface for a standard-library caller.
type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

func referenced() int { return 3 }

// Map is generic; its one use names an instantiation.
func Map[T, U any](xs []T, f func(T) U) []U {
	out := make([]U, 0, len(xs))
	for _, x := range xs {
		out = append(out, f(x))
	}
	return out
}

type box[T any] struct{ v T }

// get is reached only through box[int].
func (b box[T]) get() T { return b.v }

// Area is reached only through the shape interface, from box[float64].
func (b box[T]) Area() float64 { return 0 }

//nolint:stmaker/testonly -- the suppression case: a test of another package needs it
func Kept() int { return 4 }

func init() {
	var s shape = square{side: 2}
	_ = s.Area()
	names := []string{"ccc", "a", "bb"}
	sort.Sort(byLen(names))
	_ = referenced()
	_ = Map[int, string]([]int{1}, func(i int) string { return fmt.Sprint(i) })
	_ = box[int]{v: 1}.get()
	var bs shape = box[float64]{}
	_ = bs.Area()
	fmt.Println(counter(1))
}
