package flagsel

import "github.com/shortcircuit-db/sc/internal/registry"

// Factory builds a Selector; seed feeds randomized algorithms and is ignored
// by deterministic ones.
type Factory func(seed int64) Selector

var reg = registry.New[Selector]("flagsel", "selector", nil)

// Register makes a selector available under name (case-insensitive). It
// panics on an empty name, a nil factory, or a duplicate registration.
func Register(name string, f Factory) { reg.Register(name, f) }

// New returns a selector registered under name (case-insensitive).
func New(name string, seed int64) (Selector, error) { return reg.New(name, seed) }

// Names lists registered selector names, sorted.
func Names() []string { return reg.Names() }

func init() {
	Register("mkp", func(int64) Selector { return MKP{} })
	Register("greedy", func(int64) Selector { return Greedy{} })
	Register("random", func(seed int64) Selector { return Random{Seed: seed} })
	Register("ratio", func(int64) Selector { return Ratio{} })
}
