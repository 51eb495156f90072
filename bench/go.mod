module sfccover/bench

go 1.24

require sfccover v0.0.0

replace sfccover => ../
