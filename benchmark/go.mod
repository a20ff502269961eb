module ppm/benchmark

go 1.24

require ppm v0.0.0

replace ppm => ../
