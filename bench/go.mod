module stethoscope/bench

go 1.23

require stethoscope v0.0.0

replace stethoscope => ../
