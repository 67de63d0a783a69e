module roads/bench

go 1.22

require roads v0.0.0

replace roads => ../
