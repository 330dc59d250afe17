package faultnet

import (
	"reflect"
	"testing"
)

// FuzzScenarioRoundTrip: the fault grammar is hostile input (CLI flags, job
// files). Whatever Parse accepts must render to a form that reparses to the
// same scenario and the same string. Under plain `go test` this runs the
// seed corpus; `go test -fuzz=FuzzScenarioRoundTrip` explores further.
func FuzzScenarioRoundTrip(f *testing.F) {
	for _, src := range scenarioRoundTripCases {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		sc, err := Parse(src)
		if err != nil {
			return
		}
		canon := sc.String()
		sc2, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, canonical %q rejected: %v", src, canon, err)
		}
		if !reflect.DeepEqual(sc, sc2) {
			t.Fatalf("round trip diverged:\n src %q\n 1st %+v\n 2nd %+v", src, sc, sc2)
		}
		if got := sc2.String(); got != canon {
			t.Fatalf("Parse(%q): canonical %q reformats to %q", src, canon, got)
		}
	})
}
