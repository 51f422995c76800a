module hyper4/benchmark

go 1.22

require hyper4 v0.0.0

replace hyper4 => ../
