package order

import "github.com/shortcircuit-db/sc/internal/registry"

// Factory builds an Orderer; seed feeds randomized algorithms and is ignored
// by deterministic ones.
type Factory func(seed int64) Orderer

// reg resolves a few historical spellings to their canonical names.
var reg = registry.New[Orderer]("order", "orderer",
	map[string]string{"madfs": "ma-dfs", "topo": "kahn", "sep": "separator"})

// Register makes an orderer available under name (case-insensitive). It
// panics on an empty name, a nil factory, or a duplicate registration.
func Register(name string, f Factory) { reg.Register(name, f) }

// New returns an orderer registered under name (case-insensitive).
func New(name string, seed int64) (Orderer, error) { return reg.New(name, seed) }

// Names lists registered orderer names, sorted.
func Names() []string { return reg.Names() }

func init() {
	Register("ma-dfs", func(int64) Orderer { return MADFS{} })
	Register("dfs", func(seed int64) Orderer { return DFS{Seed: seed} })
	Register("kahn", func(int64) Orderer { return Kahn{} })
	Register("sa", func(seed int64) Orderer { return SA{Seed: seed} })
	Register("separator", func(int64) Orderer { return Separator{} })
}
