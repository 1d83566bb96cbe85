module github.com/spectrecep/spectre/benchmark

go 1.23

require github.com/spectrecep/spectre v0.0.0

replace github.com/spectrecep/spectre => ../
