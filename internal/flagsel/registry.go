package flagsel

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Factory builds a Selector; seed feeds randomized algorithms and is ignored
// by deterministic ones.
type Factory func(seed int64) Selector

var (
	regMu sync.RWMutex
	reg   = make(map[string]Factory) // keyed by lower-cased name
)

// Register makes a selector available under name (case-insensitive). It
// panics on an empty name, a nil factory, or a duplicate registration, so
// wiring mistakes surface at startup rather than mid-refresh.
func Register(name string, f Factory) {
	key := strings.ToLower(name)
	if key == "" {
		panic("flagsel: Register with empty name")
	}
	if f == nil {
		panic(fmt.Sprintf("flagsel: Register(%q) with nil factory", name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := reg[key]; dup {
		panic(fmt.Sprintf("flagsel: Register(%q) called twice", name))
	}
	reg[key] = f
}

// New returns a selector registered under name (case-insensitive).
func New(name string, seed int64) (Selector, error) {
	regMu.RLock()
	f, ok := reg[strings.ToLower(name)]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("flagsel: unknown selector %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	return f(seed), nil
}

// Names lists registered selector names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(reg))
	for k := range reg {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register("mkp", func(int64) Selector { return MKP{} })
	Register("greedy", func(int64) Selector { return Greedy{} })
	Register("random", func(seed int64) Selector { return Random{Seed: seed} })
	Register("ratio", func(int64) Selector { return Ratio{} })
}
