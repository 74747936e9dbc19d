module privstm/benchmark

go 1.22

require privstm v0.0.0

replace privstm => ../
