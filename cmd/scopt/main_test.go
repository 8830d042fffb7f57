package main

import (
	"strings"
	"testing"
)

func TestSelectorNames(t *testing.T) {
	selectors := map[string]string{
		"mkp": "MKP", "greedy": "Greedy", "random": "Random", "ratio": "Ratio", "GREEDY": "Greedy",
	}
	for name, want := range selectors {
		s, err := selector(name, 1)
		if err != nil || s.Name() != want {
			t.Errorf("selector(%q) = %v, %v; want %s", name, s, err, want)
		}
	}
	if s, err := selector("", 1); s != nil || err != nil {
		t.Errorf(`selector("") = %v, %v; want the default (nil)`, s, err)
	}
}

func TestOrdererNames(t *testing.T) {
	orderers := map[string]string{
		"ma-dfs": "MA-DFS", "madfs": "MA-DFS", "dfs": "DFS", "kahn": "Kahn", "topo": "Kahn",
		"sa": "SA", "separator": "Separator", "sep": "Separator", "Ma-Dfs": "MA-DFS",
	}
	for name, want := range orderers {
		o, err := orderer(name, 1)
		if err != nil || o.Name() != want {
			t.Errorf("orderer(%q) = %v, %v; want %s", name, o, err, want)
		}
	}
	if o, err := orderer("", 1); o != nil || err != nil {
		t.Errorf(`orderer("") = %v, %v; want the default (nil)`, o, err)
	}
}

func TestUnknownAlgorithmNames(t *testing.T) {
	if _, err := selector("no-such-selector", 1); err == nil || !strings.Contains(err.Error(), "no-such-selector") || !strings.Contains(err.Error(), "ratio") {
		t.Errorf("err = %v, want an error naming the input and the accepted names", err)
	}
	if _, err := orderer("no-such-orderer", 1); err == nil || !strings.Contains(err.Error(), "no-such-orderer") || !strings.Contains(err.Error(), "separator") {
		t.Errorf("err = %v, want an error naming the input and the accepted names", err)
	}
}
