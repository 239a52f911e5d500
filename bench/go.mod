module samr/bench

go 1.24

require samr v0.0.0

replace samr => ../
