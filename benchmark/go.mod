// The benchmark is a module of its own so that it has its own build file.
// Its path sits under spin/ so that it may import the program's internal
// packages, and the replace directive resolves them from the checkout.
module spin/benchmark

go 1.22

require spin v0.0.0

replace spin => ../
