module dualcdb/bench

go 1.22

require dualcdb v0.0.0

replace dualcdb => ../
