// The fixture's one program: everything in internal/lib it reaches,
// directly or through the standard library, stays quiet.
package main

import (
	"errors"
	"fmt"
	"sort"

	"github.com/adaptsim/deadfixture/internal/lib"
)

func main() {
	fmt.Println(lib.Total([]lib.Shape{lib.Square{Side: 2}, &lib.Circle{R: 1}}))
	fmt.Println(lib.Celsius(21))
	names := lib.ByLen{"ccc", "a", "bb"}
	sort.Sort(names)
	fmt.Println(names, lib.Hook(2), lib.Ready)
	if err := lib.Open(); errors.Is(err, lib.ErrClosed) {
		fmt.Println(err)
	}
}
