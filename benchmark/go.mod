module github.com/shortcircuit-db/sc/benchmark

go 1.24

require github.com/shortcircuit-db/sc v0.0.0

replace github.com/shortcircuit-db/sc => ../
