module ompcloud/benchmark

go 1.24

require ompcloud v0.0.0

replace ompcloud => ../
