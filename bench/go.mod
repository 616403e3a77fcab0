module debugdet/bench

go 1.23

require debugdet v0.0.0

replace debugdet => ../
