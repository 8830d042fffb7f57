package order

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Factory builds an Orderer; seed feeds randomized algorithms and is ignored
// by deterministic ones.
type Factory func(seed int64) Orderer

var (
	regMu sync.RWMutex
	reg   = make(map[string]Factory) // keyed by lower-cased name

	// aliases resolves a few historical spellings to their canonical names.
	aliases = map[string]string{"madfs": "ma-dfs", "topo": "kahn", "sep": "separator"}
)

// Register makes an orderer available under name (case-insensitive). It
// panics on an empty name, a nil factory, or a duplicate registration, so
// wiring mistakes surface at startup rather than mid-refresh.
func Register(name string, f Factory) {
	key := strings.ToLower(name)
	if key == "" {
		panic("order: Register with empty name")
	}
	if f == nil {
		panic(fmt.Sprintf("order: Register(%q) with nil factory", name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := reg[key]; dup {
		panic(fmt.Sprintf("order: Register(%q) called twice", name))
	}
	reg[key] = f
}

// New returns an orderer registered under name (case-insensitive, aliases
// resolved).
func New(name string, seed int64) (Orderer, error) {
	key := strings.ToLower(name)
	if canon, ok := aliases[key]; ok {
		key = canon
	}
	regMu.RLock()
	f, ok := reg[key]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("order: unknown orderer %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	return f(seed), nil
}

// Names lists registered orderer names, sorted.
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
	Register("ma-dfs", func(int64) Orderer { return MADFS{} })
	Register("dfs", func(seed int64) Orderer { return DFS{Seed: seed} })
	Register("kahn", func(int64) Orderer { return Kahn{} })
	Register("sa", func(seed int64) Orderer { return SA{Seed: seed} })
	Register("separator", func(int64) Orderer { return Separator{} })
}
