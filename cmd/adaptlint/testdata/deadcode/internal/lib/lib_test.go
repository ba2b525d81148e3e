package lib

import "testing"

func TestOnlyTested(t *testing.T) {
	if OnlyTested()+Seam() != 5 {
		t.Fatal("fixture arithmetic")
	}
}
