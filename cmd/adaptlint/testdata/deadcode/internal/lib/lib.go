// Package lib is the deadcode fixture's library: reached code, code
// only the standard library calls, unreached code, and a test seam.
package lib

import (
	"errors"
	"fmt"
)

// Shape is dispatched dynamically: Total never names Square or Circle.
type Shape interface{ Area() float64 }

// Square and Circle are reached only through Shape.Area.
type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

type Circle struct{ R float64 }

func (c *Circle) Area() float64 { return 3 * c.R * c.R }

// Total sums the areas.
func Total(shapes []Shape) float64 {
	sum := 0.0
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

// Celsius is handed to fmt, which calls String.
type Celsius float64

func (c Celsius) String() string { return fmt.Sprintf("%g°C", float64(c)) }

// ByLen is handed to sort.Sort, which calls Len, Less and Swap.
type ByLen []string

func (b ByLen) Len() int           { return len(b) }
func (b ByLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b ByLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// Hook is referenced only from a package-level var initializer.
var Hook = double

func double(x int) int { return 2 * x }

// Ready is set by init.
var Ready bool

func init() { Ready = warm() }

func warm() bool { return true }

// ErrClosed is matched by errors.Is, which calls Unwrap.
var ErrClosed = errors.New("closed")

type openError struct{ cause error }

func (e *openError) Error() string { return "open: " + e.cause.Error() }
func (e *openError) Unwrap() error { return e.cause }

// Open always fails.
//
//lint:ignore deadcode stale: main calls Open, so this suppresses nothing
func Open() error { return &openError{cause: ErrClosed} }

// Unused is reached from nowhere.
func Unused() int { return 1 }

// OnlyTested is called only from lib_test.go.
func OnlyTested() int { return 2 }

// Seam is a test hook; what only it calls is part of it.
//
//lint:ignore deadcode fixture seam: tests reach it, no program does
func Seam() int { return seamHelper() }

func seamHelper() int { return 3 }
