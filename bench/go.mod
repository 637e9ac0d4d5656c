module assocmine/bench

go 1.22

require assocmine v0.0.0

replace assocmine => ../
