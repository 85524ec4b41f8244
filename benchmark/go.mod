module rethinkkv/benchmark

go 1.24

require rethinkkv v0.0.0

replace rethinkkv => ../
