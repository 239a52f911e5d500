module planted

go 1.24
