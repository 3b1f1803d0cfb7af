package main

import (
	"strings"
	"testing"
)

func TestCheckIDs(t *testing.T) {
	long := strings.Repeat("x", 65)
	for _, tc := range []struct {
		name, cell string
		flag       string // the flag the error names, "" for none
	}{
		{"kitchen-phone", "", ""},
		{"kitchen-phone", "bs/s0", ""},
		{"3gol-" + strings.Repeat("h", 59), "c1", ""},
		{"", "", "-name"},
		{"3gol-" + long, "", "-name"},
		{"kitchen phone", "c1", "-name"},
		{"kitchen-phone", "cell 1", "-cell"},
		{"kitchen-phone", long, "-cell"},
	} {
		err := checkIDs(tc.name, tc.cell)
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("checkIDs(%q, %q) = %v; want nil", tc.name, tc.cell, err)
		case tc.flag != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ")):
			t.Errorf("checkIDs(%q, %q) = %v; want an error naming %s", tc.name, tc.cell, err, tc.flag)
		}
	}
}
