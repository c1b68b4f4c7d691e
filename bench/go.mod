module gupcxx/bench

go 1.24

require gupcxx v0.0.0

replace gupcxx => ../
