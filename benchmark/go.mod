module apan/benchmark

go 1.24

require apan v0.0.0

replace apan => ../
