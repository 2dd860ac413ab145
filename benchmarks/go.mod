module pds/benchmarks

go 1.22

require pds v0.0.0

replace pds => ../
