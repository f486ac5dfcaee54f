module flick/benchmark

go 1.22

require flick v0.0.0

replace flick => ../
