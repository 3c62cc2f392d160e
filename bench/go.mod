module cellmg/bench

go 1.24

require cellmg v0.0.0

replace cellmg => ../
